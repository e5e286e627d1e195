package core

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/numa"
	"repro/internal/spin"
)

// The A-C-BO-CLH local lock (paper §3.6.2) decides its viable-successor
// race on one word per queue node: the owner's local hand-off CAS and
// the successor's abort CAS target the same word, so they exclude each
// other. A node's word is:
//
//	bit 63      — successor-aborted flag
//	bits 0..62  — code: 0 busy, 1 release-local, 2 release-global,
//	              3 aborted (the node's owner left; its pred field
//	              names the node to spin on instead)
const (
	acBusy      uint64 = 0
	acRL        uint64 = 1
	acRG        uint64 = 2
	acAborted   uint64 = 3
	acAbortFlag uint64 = 1 << 63
	acCodeMask  uint64 = acAbortFlag - 1
)

// acNode is one abortable-CLH queue record. waiter names the parker
// of the successor parked on this node, nil while none is: a waiter
// that never aborts (Blocking's) parks, one with a deadline polls.
// pred is written by an aborting owner before it stores acAborted and
// read by the one successor that loads acAborted, so the word's store
// and load order it.
type acNode struct {
	word   atomic.Uint64
	waiter atomic.Pointer[spin.Parker]
	pred   *acNode
	_      numa.Pad
}

// acProcState is per-proc bookkeeping: the node held by the current
// acquisition and a free-node pool. Only the owning proc makes and
// touches it.
type acProcState struct {
	holder *acNode
	pool   []*acNode
	_      numa.Pad
}

// ACLHLocal is the abortable cohort-detecting CLH lock of A-C-BO-CLH
// (paper §3.6.2), and behind Blocking C-BO-CLH's. Waiters spin on
// their predecessor's node (CLH-style implicit predecessors). An
// aborting waiter atomically sets its predecessor's successor-aborted
// flag — the same word the owner's release-local CAS targets — then
// publishes its predecessor in its own node for its successor to
// adopt. The single-word CAS makes "hand off locally" and "successor
// aborts" mutually exclusive, which is exactly the strengthened
// cohort-detection property abortability requires.
//
// Deviation (documented in DESIGN.md): reclaimed nodes go to the pool
// of the proc that unlinked them rather than their original owner's;
// nodes are interchangeable, so behaviour is unchanged.
type ACLHLocal struct {
	tail  atomic.Pointer[acNode]
	_     numa.Pad
	procs []*acProcState // indexed by proc id; nil until the proc's first TryLock
}

// NewACLHLocal returns an abortable cohort-detecting CLH lock.
func NewACLHLocal(topo *numa.Topology) *ACLHLocal {
	l := &ACLHLocal{procs: make([]*acProcState, topo.MaxProcs())}
	dummy := new(acNode)
	dummy.word.Store(acRG)
	l.tail.Store(dummy)
	return l
}

// getNode returns p's state, made at its first acquisition, and a busy
// node from its pool or, if the pool is empty, a new one.
func (l *ACLHLocal) getNode(p *numa.Proc) (*acProcState, *acNode) {
	st := l.procs[p.ID()]
	if st == nil {
		st = new(acProcState)
		l.procs[p.ID()] = st
	}
	var n *acNode
	if k := len(st.pool); k > 0 {
		n, st.pool = st.pool[k-1], st.pool[:k-1]
	} else {
		n = new(acNode)
	}
	n.word.Store(acBusy)
	return st, n
}

// TryLock enqueues and spins on the predecessor until granted, the
// predecessor chain resolves to a release, or the deadline passes.
// A waiter whose deadline never comes (math.MaxInt64, Blocking's)
// parks instead, naming its parker in the predecessor's node until the
// word changes: under oversubscription a FIFO successor that only
// polls is a runnable goroutine queued behind busy ones, so each
// hand-off could cost a scheduler time slice.
//
// Abort rules (all resolved through the predecessor's single word):
//   - predecessor busy, flag clear: CAS in the successor-aborted flag;
//     on success publish our explicit predecessor and leave.
//   - predecessor busy, flag already set (by a previously aborted
//     sibling): no hand-off can reach us, so publish and leave.
//   - release observed after the deadline: we have become the local
//     owner and report (late) success; for release-global the caller's
//     global acquisition will itself time out and abandon via
//     Unlock(p, false), which re-releases the node in global-release
//     state without stranding anything.
func (l *ACLHLocal) TryLock(p *numa.Proc, deadline int64) (Release, bool) {
	st, n := l.getNode(p)
	pred := l.tail.Swap(n)
	for i := 0; ; i++ {
		w := pred.word.Load()
		if code := w & acCodeMask; code != acBusy {
			// The predecessor released or aborted: reclaim its node.
			st.pool = append(st.pool, pred)
			if code == acAborted {
				pred = pred.pred // adopt its predecessor
				continue
			}
			st.holder = n
			if code == acRL {
				return ReleaseLocal, true
			}
			return ReleaseGlobal, true
		}
		// Predecessor is busy.
		if deadline == math.MaxInt64 {
			pred.waiter.Store(p.Parker())
			p.Parker().Wait(func() bool { return pred.word.Load()&acCodeMask != acBusy })
			pred.waiter.Store(nil)
			continue
		}
		if spin.Expired(deadline) {
			if w&acAbortFlag != 0 ||
				pred.word.CompareAndSwap(acBusy, acBusy|acAbortFlag) {
				n.pred = pred
				n.word.Store(acAborted)
				n.wake()
				return ReleaseGlobal, false
			}
			// The CAS lost a race with a release or an abort
			// publication; loop to resolve the new state.
			continue
		}
		spin.Poll(i)
	}
}

// Unlock implements the paper's release protocol: a local hand-off is
// a CAS of the holder's word from (busy, not-aborted) to
// release-local; the colocated flag guarantees the successor is
// viable. If the CAS fails (successor aborted) or no local hand-off is
// wanted, the node is marked release-global instead. Either way the
// node's parked successor, if any, is woken after the word changes.
// Unlock reports whether it handed off locally.
func (l *ACLHLocal) Unlock(p *numa.Proc, wantLocal bool) bool {
	n := l.procs[p.ID()].holder
	local := wantLocal && n.word.CompareAndSwap(acBusy, acRL)
	if !local {
		n.word.Store(acRG)
	}
	n.wake()
	return local
}

// wake wakes the successor parked on n, if it has named its parker.
// Call it after n's word changes (spin.Parker: publish and wake).
func (n *acNode) wake() {
	if pk := n.waiter.Load(); pk != nil {
		pk.Wake()
	}
}

// Alone reports whether the holder's node is still the queue tail,
// i.e. no later request has been posted (paper §3.6.2). Waiters that
// enqueued and aborted make this a false negative, which the release
// CAS then corrects.
func (l *ACLHLocal) Alone(p *numa.Proc) bool {
	return l.tail.Load() == l.procs[p.ID()].holder
}

// ACLH is Scott's abortable CLH queue lock (PODC 2002), the paper's
// abortable baseline of Figure 6 (registry name a-clh): the
// A-C-BO-CLH local lock used alone, with no global lock above it.
// Every release is a global release, so the successor-aborted flag an
// aborter sets is never read: against Scott's lock it costs one CAS
// per abort.
type ACLH struct{ local *ACLHLocal }

// NewACLH returns an unlocked abortable CLH lock.
func NewACLH(topo *numa.Topology) *ACLH { return &ACLH{NewACLHLocal(topo)} }

// TryLockFor attempts acquisition, aborting after patience. On abort
// the caller's node stays in the queue for its successor to unlink.
func (l *ACLH) TryLockFor(p *numa.Proc, patience time.Duration) bool {
	_, ok := l.local.TryLock(p, spin.Deadline(patience))
	return ok
}

// Unlock releases the lock to the successor, or to a future arrival.
func (l *ACLH) Unlock(p *numa.Proc) { l.local.Unlock(p, false) }
