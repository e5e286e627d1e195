package core

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// lclhNode is one record of the cohort-detecting CLH lock. The waiter
// spins on its predecessor's node until the predecessor frees it.
type lclhNode struct {
	busy   atomic.Bool // set from enqueue until the owner's Unlock
	parker spin.Parker // wakes whichever thread watches this node
	_      numa.Pad
}

// LocalCLH is a cohort-detecting CLH queue lock: the non-abortable
// sibling of ACLHLocal. The paper presents MCS-based locals (§3.3) and
// notes that "most locks can be used in the cohort locking
// transformation"; CLH qualifies exactly like MCS — implicit-
// predecessor spinning keeps waiting local, and cohort detection is a
// tail check. Composing it under a global BO lock yields C-BO-CLH
// (registry name c-bo-clh), an additional construction beyond the
// paper's seven.
type LocalCLH struct {
	tail atomic.Pointer[lclhNode]
	_    numa.Pad
	// Per-proc slots: the node currently enqueued (holder, for Alone
	// and Unlock), the predecessor node to recycle, and the node to
	// use for the next acquisition.
	holder []*lclhNode
	pred   []*lclhNode
	next   []*lclhNode
}

// NewLocalCLH returns a cohort-detecting CLH lock.
func NewLocalCLH(topo *numa.Topology) *LocalCLH {
	l := &LocalCLH{
		holder: make([]*lclhNode, topo.MaxProcs()),
		pred:   make([]*lclhNode, topo.MaxProcs()),
		next:   make([]*lclhNode, topo.MaxProcs()),
	}
	for i := range l.next {
		l.next[i] = &lclhNode{parker: spin.MakeParker()}
	}
	l.tail.Store(&lclhNode{parker: spin.MakeParker()}) // free dummy
	return l
}

// Lock enqueues and waits until the predecessor's node is free. The
// predecessor's node is adopted for this proc's next acquisition
// (standard CLH rotation).
func (l *LocalCLH) Lock(p *numa.Proc) {
	id := p.ID()
	n := l.next[id]
	n.busy.Store(true)
	pred := l.tail.Swap(n)
	pred.parker.Wait(func() bool { return !pred.busy.Load() })
	l.holder[id] = n
	l.pred[id] = pred
}

// Unlock frees the holder's node and recycles the predecessor's node.
func (l *LocalCLH) Unlock(p *numa.Proc) {
	id := p.ID()
	n := l.holder[id]
	l.holder[id] = nil
	l.next[id] = l.pred[id]
	l.pred[id] = nil
	n.busy.Store(false)
	n.parker.Wake()
}

// Alone reports whether the holder's node is still the tail: no later
// request has been posted. The answer is exact — the tail moves
// exactly when a request enqueues, and CLH waiters cannot abort — so
// there are neither false positives nor false negatives.
func (l *LocalCLH) Alone(p *numa.Proc) bool {
	return l.tail.Load() == l.holder[p.ID()]
}
