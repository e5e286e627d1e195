package locks

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// mcsNode is one thread's record in the MCS queue. Each (lock, proc)
// pair owns a dedicated padded node, made at the proc's first
// acquisition and reused after it without allocation — safe because
// standard MCS guarantees a node is unreferenced once its owner's
// Unlock returns. parker is the owner's, which its predecessor wakes.
type mcsNode struct {
	next   atomic.Pointer[mcsNode]
	locked atomic.Int32 // 1 while waiting
	parker *spin.Parker
	_      numa.Pad
}

// MCS is the queue lock of Mellor-Crummey and Scott: arrivals swap
// themselves onto a tail pointer and spin locally on their own node
// until their predecessor hands the lock over. It is the paper's
// NUMA-oblivious baseline: perfectly fair, hence migration-heavy.
type MCS struct {
	tail  atomic.Pointer[mcsNode]
	_     numa.Pad
	nodes []*mcsNode // indexed by proc id; nil until the proc's first Lock
}

// NewMCS returns an MCS lock sized for the topology's processors.
func NewMCS(topo *numa.Topology) *MCS {
	return &MCS{nodes: make([]*mcsNode, topo.MaxProcs())}
}

// node returns p's node, making it at p's first acquisition. Only p
// writes its entry; other procs reach the node through the queue.
func (l *MCS) node(p *numa.Proc) *mcsNode {
	n := l.nodes[p.ID()]
	if n == nil {
		n = &mcsNode{parker: p.Parker()}
		l.nodes[p.ID()] = n
	}
	return n
}

// Lock enqueues the caller and spins on its own node.
func (l *MCS) Lock(p *numa.Proc) {
	n := l.node(p)
	n.next.Store(nil)
	n.locked.Store(1)
	pred := l.tail.Swap(n)
	if pred == nil {
		return
	}
	pred.next.Store(n)
	n.parker.Wait(func() bool { return n.locked.Load() == 0 })
}

// Unlock hands the lock to the successor, or empties the queue.
func (l *MCS) Unlock(p *numa.Proc) {
	n := l.nodes[p.ID()]
	next := n.next.Load()
	if next == nil {
		if l.tail.CompareAndSwap(n, nil) {
			return
		}
		// A successor swapped in but has not linked yet; wait for it.
		for i := 0; ; i++ {
			if next = n.next.Load(); next != nil {
				break
			}
			spin.Poll(i)
		}
	}
	next.locked.Store(0)
	next.parker.Wake()
}

// Alone reports whether the caller's node has no linked successor: the
// alone? predicate that makes MCS a cohort local lock (paper §3.3).
// False positives are possible (a successor swapped the tail but has
// not linked yet), which the cohort protocol tolerates.
func (l *MCS) Alone(p *numa.Proc) bool { return l.nodes[p.ID()].next.Load() == nil }
