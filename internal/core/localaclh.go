package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/numa"
	"repro/internal/spin"
)

// The A-C-BO-CLH local lock (paper §3.6.2) needs a queue-node "prev"
// field and a successor-aborted flag that are read and modified as one
// atomic unit: the owner's local hand-off CAS and the successor's
// abort CAS must exclude each other. Go cannot pack a pointer and a
// flag into one word without unsafe, so nodes live in a chunked arena
// and are addressed by index. A node's state is a single uint64:
//
//	bit 63      — successor-aborted flag
//	bits 0..62  — code: 0 busy, 1 release-local, 2 release-global,
//	              k+3 = explicit predecessor with node index k (the
//	              node's owner aborted; spin on node k instead)
const (
	acBusy      uint64 = 0
	acRL        uint64 = 1
	acRG        uint64 = 2
	acPredBase  uint64 = 3
	acAbortFlag uint64 = 1 << 63
	acCodeMask  uint64 = acAbortFlag - 1
)

func acEncodePred(idx int64) uint64 { return uint64(idx) + acPredBase }

// acNode is one abortable-CLH queue record. parker wakes the waiter
// that parks on this node: a waiter that never aborts (Blocking's)
// parks, one with a deadline polls.
type acNode struct {
	word   atomic.Uint64
	parker spin.Parker
	_      numa.Pad
}

// Arena geometry: chunks are installed once and never move, so a node
// index remains valid for the lock's lifetime while the arena grows
// without copying.
const (
	acChunkShift = 8
	acChunkSize  = 1 << acChunkShift
	acChunkMask  = acChunkSize - 1
	acMaxChunks  = 1 << 12
)

type acChunk [acChunkSize]acNode

// acArena is a grow-only chunked node store. Racing installers of a
// chunk agree by CAS; a loser's chunk is garbage.
type acArena struct {
	next   atomic.Int64
	chunks [acMaxChunks]atomic.Pointer[acChunk]
}

func (a *acArena) alloc() int64 {
	i := a.next.Add(1) - 1
	ci := i >> acChunkShift
	if ci >= acMaxChunks {
		panic(fmt.Sprintf("core: A-CLH arena exhausted (%d nodes)", i))
	}
	if a.chunks[ci].Load() == nil {
		c := new(acChunk)
		for j := range c {
			c[j].parker = spin.MakeParker()
		}
		a.chunks[ci].CompareAndSwap(nil, c)
	}
	return i
}

func (a *acArena) node(i int64) *acNode {
	return &a.chunks[i>>acChunkShift].Load()[i&acChunkMask]
}

// acProcState is per-proc bookkeeping: the node held by the current
// acquisition and a free-node pool. Only the owning proc touches it.
type acProcState struct {
	holder int64
	pool   []int64
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
	arena acArena
	tail  atomic.Int64
	_     numa.Pad
	procs []acProcState
}

// NewACLHLocal returns an abortable cohort-detecting CLH lock.
func NewACLHLocal(topo *numa.Topology) *ACLHLocal {
	l := &ACLHLocal{procs: make([]acProcState, topo.MaxProcs())}
	dummy := l.arena.alloc()
	l.arena.node(dummy).word.Store(acRG)
	l.tail.Store(dummy)
	return l
}

func (l *ACLHLocal) getNode(p *numa.Proc) int64 {
	st := &l.procs[p.ID()]
	if n := len(st.pool); n > 0 {
		idx := st.pool[n-1]
		st.pool = st.pool[:n-1]
		l.arena.node(idx).word.Store(acBusy)
		return idx
	}
	idx := l.arena.alloc()
	l.arena.node(idx).word.Store(acBusy)
	return idx
}

func (l *ACLHLocal) putNode(p *numa.Proc, idx int64) {
	st := &l.procs[p.ID()]
	st.pool = append(st.pool, idx)
}

// TryLock enqueues and spins on the predecessor until granted, the
// predecessor chain resolves to a release, or the deadline passes.
// A waiter whose deadline never comes (math.MaxInt64, Blocking's)
// parks on the predecessor's node instead: under oversubscription a
// FIFO successor that only polls is a runnable goroutine queued behind
// busy ones, so each hand-off could cost a scheduler time slice.
//
// Abort rules (all resolved through the predecessor's single word):
//   - predecessor busy, flag clear: CAS in the successor-aborted flag;
//     on success publish our explicit predecessor and leave.
//   - predecessor busy, flag already set (by a previously aborted
//     sibling): no hand-off can reach us, so publish and leave.
//   - release observed after the deadline: we have become the local
//     owner and report (late) success; for release-global the caller's
//     global acquisition will itself time out and abandon via
//     Unlock(p, false, noRelease), which re-releases the node in
//     global-release state without stranding anything.
func (l *ACLHLocal) TryLock(p *numa.Proc, deadline int64) (Release, bool) {
	n := l.getNode(p)
	pred := l.tail.Swap(n)
	for i := 0; ; i++ {
		w := l.arena.node(pred).word.Load()
		code := w & acCodeMask
		switch {
		case code == acRL:
			l.putNode(p, pred)
			l.procs[p.ID()].holder = n
			return ReleaseLocal, true
		case code == acRG:
			l.putNode(p, pred)
			l.procs[p.ID()].holder = n
			return ReleaseGlobal, true
		case code >= acPredBase:
			// Predecessor aborted: adopt its predecessor, reclaim it.
			l.putNode(p, pred)
			pred = int64(code - acPredBase)
			continue
		}
		// Predecessor is busy.
		if deadline == math.MaxInt64 {
			pn := l.arena.node(pred)
			pn.parker.Wait(func() bool { return pn.word.Load()&acCodeMask != acBusy })
			continue
		}
		if spin.Expired(deadline) {
			if w&acAbortFlag != 0 ||
				l.arena.node(pred).word.CompareAndSwap(acBusy, acBusy|acAbortFlag) {
				nd := l.arena.node(n)
				nd.word.Store(acEncodePred(pred))
				nd.parker.Wake()
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
// wanted, the global lock is released first and the node is then
// marked release-global. Either way the node's parked successor, if
// any, is woken after the word changes.
func (l *ACLHLocal) Unlock(p *numa.Proc, wantLocal bool, releaseGlobal func()) {
	n := l.procs[p.ID()].holder
	nd := l.arena.node(n)
	if !wantLocal || !nd.word.CompareAndSwap(acBusy, acRL) {
		releaseGlobal()
		nd.word.Store(acRG)
	}
	nd.parker.Wake()
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
func (l *ACLH) Unlock(p *numa.Proc) { l.local.Unlock(p, false, noRelease) }

// noRelease is the releaseGlobal of a thread that holds no global
// lock: the lone ACLH, and an abortable cohort waiter that won its
// local lock but timed out on the global one.
func noRelease() {}
