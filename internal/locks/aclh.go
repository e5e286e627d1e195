package locks

import (
	"sync/atomic"
	"time"

	"repro/internal/numa"
	"repro/internal/spin"
)

// aclhNode is an abortable-CLH queue record. Its prev field encodes
// the node's state:
//
//	nil          — the owning thread holds the lock or is still waiting
//	&aclhAvail   — released: the successor becomes the owner
//	other node   — aborted: the successor adopts that node as its
//	               predecessor and recycles this one
type aclhNode struct {
	prev atomic.Pointer[aclhNode]
	_    numa.Pad
}

// aclhAvail is the distinguished "released" sentinel.
var aclhAvail = &aclhNode{}

// ACLH is Scott's abortable CLH queue lock (PODC 2002), the paper's
// state-of-the-art abortable baseline (Figure 6). Aborting threads
// leave their node behind with an explicit predecessor pointer; the
// spinning successor unlinks it lazily and reclaims it.
type ACLH struct {
	tail atomic.Pointer[aclhNode]
	_    numa.Pad
	// holder records, per proc, the node enqueued by its current
	// acquisition, so Unlock can find it.
	holder []*aclhNode
	// pools are per-proc free lists. Only the owning proc touches its
	// pool: aborted/released nodes are reclaimed by the successor that
	// observed them, into the successor's own pool. (Scott returns
	// them to the original owner's pool; nodes are interchangeable, so
	// keeping them locally preserves behaviour without cross-thread
	// free lists.)
	pools [][]*aclhNode
}

// NewACLH returns an unlocked abortable CLH lock.
func NewACLH(topo *numa.Topology) *ACLH {
	l := &ACLH{
		holder: make([]*aclhNode, topo.MaxProcs()),
		pools:  make([][]*aclhNode, topo.MaxProcs()),
	}
	dummy := &aclhNode{}
	dummy.prev.Store(aclhAvail)
	l.tail.Store(dummy)
	return l
}

func (l *ACLH) getNode(p *numa.Proc) *aclhNode {
	pool := l.pools[p.ID()]
	if n := len(pool); n > 0 {
		nd := pool[n-1]
		l.pools[p.ID()] = pool[:n-1]
		nd.prev.Store(nil)
		return nd
	}
	return &aclhNode{}
}

func (l *ACLH) putNode(p *numa.Proc, nd *aclhNode) {
	l.pools[p.ID()] = append(l.pools[p.ID()], nd)
}

// TryLockFor attempts acquisition, aborting after patience. On abort
// the caller's node remains in the queue for the successor to unlink.
// ACLH has no Lock: the registry builds a-clh as a TryMutex only.
func (l *ACLH) TryLockFor(p *numa.Proc, patience time.Duration) bool {
	deadline := spin.Deadline(patience)
	n := l.getNode(p)
	pred := l.tail.Swap(n)
	for i := 0; ; i++ {
		pp := pred.prev.Load()
		if pp == aclhAvail {
			// Predecessor released: we own the lock and recycle its node.
			l.putNode(p, pred)
			l.holder[p.ID()] = n
			return true
		}
		if pp != nil {
			// Predecessor aborted: adopt its predecessor, reclaim it.
			l.putNode(p, pred)
			pred = pp
			continue
		}
		if spin.Expired(deadline) {
			// Publish our predecessor so our successor can skip us;
			// the node now belongs to that successor.
			n.prev.Store(pred)
			return false
		}
		spin.Poll(i)
	}
}

// Unlock releases the lock; the successor (or a future arrival)
// observes the released node and reclaims it.
func (l *ACLH) Unlock(p *numa.Proc) {
	n := l.holder[p.ID()]
	l.holder[p.ID()] = nil
	n.prev.Store(aclhAvail)
}
