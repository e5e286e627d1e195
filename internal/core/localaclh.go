package core

import (
	"fmt"
	"sync/atomic"

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

// acNode is one abortable-CLH queue record.
type acNode struct {
	word atomic.Uint64
	_    numa.Pad
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
		a.chunks[ci].CompareAndSwap(nil, new(acChunk))
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
// (paper §3.6.2). Waiters spin on their predecessor's node (CLH-style
// implicit predecessors). An aborting waiter atomically sets its
// predecessor's successor-aborted flag — the same word the owner's
// release-local CAS targets — then publishes its predecessor in its
// own node for its successor to adopt. The single-word CAS makes
// "hand off locally" and "successor aborts" mutually exclusive, which
// is exactly the strengthened cohort-detection property abortability
// requires.
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
//
// Abort rules (all resolved through the predecessor's single word):
//   - predecessor busy, flag clear: CAS in the successor-aborted flag;
//     on success publish our explicit predecessor and leave.
//   - predecessor busy, flag already set (by a previously aborted
//     sibling): no hand-off can reach us, so publish and leave.
//   - release observed after the deadline: we have become the local
//     owner and report (late) success; for release-global the caller's
//     global acquisition will itself time out and abandon via
//     Unlock(p, false, noop), which re-releases the node in
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
		if spin.Expired(deadline) {
			if w&acAbortFlag != 0 ||
				l.arena.node(pred).word.CompareAndSwap(acBusy, acBusy|acAbortFlag) {
				l.arena.node(n).word.Store(acEncodePred(pred))
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
// marked release-global.
func (l *ACLHLocal) Unlock(p *numa.Proc, wantLocal bool, releaseGlobal func()) {
	n := l.procs[p.ID()].holder
	nd := l.arena.node(n)
	if wantLocal && nd.word.CompareAndSwap(acBusy, acRL) {
		return
	}
	releaseGlobal()
	nd.word.Store(acRG)
}

// Alone reports whether the holder's node is still the queue tail,
// i.e. no later request has been posted (paper §3.6.2). Waiters that
// enqueued and aborted make this a false negative, which the release
// CAS then corrects.
func (l *ACLHLocal) Alone(p *numa.Proc) bool {
	return l.tail.Load() == l.procs[p.ID()].holder
}
