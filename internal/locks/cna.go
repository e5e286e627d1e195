package locks

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// DefaultCNAStreak bounds consecutive same-cluster hand-offs before a
// CNA lock must serve a deferred remote waiter — the same fairness
// knob the cohort locks expose as their may-pass-local limit.
const DefaultCNAStreak = 64

// cnaNode is one thread's record in the CNA queue. Like MCS, each
// (lock, proc) pair owns a dedicated padded node, made at the proc's
// first acquisition and reused after it. Beyond the MCS fields it
// carries the secondary-list plumbing: sec is the head of the deferred
// remote-waiter list handed to this node along with the lock, and
// secTail (meaningful only on a secondary-list head) is that list's
// last node.
type cnaNode struct {
	next    atomic.Pointer[cnaNode]
	granted atomic.Int32 // 1 once the lock has been passed to this node
	sec     atomic.Pointer[cnaNode]
	secTail atomic.Pointer[cnaNode]
	parker  *spin.Parker // the owner's
	cluster int
	_       numa.Pad
}

// CNA is the compact NUMA-aware queue lock of Dice and Kogan
// (EuroSys 2019): a single MCS-shaped queue whose releaser scans for a
// successor from its own cluster, moving the remote waiters it skips
// onto a secondary list. Ownership thus circulates within one cluster
// — cohort-style locality from one queue and constant memory — until
// the local streak reaches its bound or the cluster runs out of
// waiters, at which point the secondary list is spliced back ahead of
// the main queue so deferred clusters are served oldest-first.
type CNA struct {
	tail atomic.Pointer[cnaNode]
	_    numa.Pad
	// streak counts consecutive same-cluster hand-offs. It is written
	// only by the lock holder; successive holders are ordered by the
	// grant and tail atomics.
	streak int64
	limit  int64
	nodes  []*cnaNode // indexed by proc id; nil until the proc's first Lock
}

// NewCNA returns a CNA lock sized for the topology's processors, with
// the default local-streak bound.
func NewCNA(topo *numa.Topology) *CNA {
	return NewCNAStreak(topo, DefaultCNAStreak)
}

// NewCNAStreak is NewCNA with an explicit bound on consecutive local
// hand-offs. Zero selects DefaultCNAStreak; a negative value removes
// the bound entirely — remote waiters are then served only when the
// holder's cluster has no waiter, the deeply unfair variant.
func NewCNAStreak(topo *numa.Topology, limit int64) *CNA {
	if limit == 0 {
		limit = DefaultCNAStreak
	}
	return &CNA{limit: limit, nodes: make([]*cnaNode, topo.MaxProcs())}
}

// Lock enqueues the caller on the main queue and spins on its own
// node, exactly like MCS; NUMA-awareness lives entirely in Unlock.
// The node is made at the proc's first acquisition, as MCS's is.
func (l *CNA) Lock(p *numa.Proc) {
	n := l.nodes[p.ID()]
	if n == nil {
		n = &cnaNode{parker: p.Parker(), cluster: p.Cluster()}
		l.nodes[p.ID()] = n
	}
	n.next.Store(nil)
	n.sec.Store(nil)
	n.secTail.Store(nil)
	n.granted.Store(0)
	pred := l.tail.Swap(n)
	if pred == nil {
		return
	}
	pred.next.Store(n)
	n.parker.Wait(func() bool { return n.granted.Load() == 1 })
}

// Unlock passes the lock to the first same-cluster waiter while the
// streak budget lasts, deferring the remote waiters it skips onto the
// secondary list; otherwise it serves the oldest deferred waiter (or
// the main-queue head) and resets the streak.
func (l *CNA) Unlock(p *numa.Proc) {
	n := l.nodes[p.ID()]
	next := n.next.Load()
	if next == nil {
		if sec := n.sec.Load(); sec == nil {
			if l.tail.CompareAndSwap(n, nil) {
				return
			}
		} else if l.tail.CompareAndSwap(n, sec.secTail.Load()) {
			// Main queue drained: the deferred waiters become the whole
			// queue, their internal next links already in place.
			l.streak = 0
			l.grant(sec, nil)
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
	if l.limit < 0 || l.streak < l.limit {
		if succ := l.findLocal(n, next); succ != nil {
			l.streak++
			l.grant(succ, n.sec.Load())
			return
		}
	}
	// Streak exhausted or no same-cluster waiter: splice the secondary
	// list ahead of the main queue so its oldest waiter runs next.
	l.streak = 0
	if sec := n.sec.Load(); sec != nil {
		sec.secTail.Load().next.Store(next)
		l.grant(sec, nil)
	} else {
		l.grant(next, nil)
	}
}

// grant hands the lock (and the current secondary list) to succ. The
// sec store must precede the granted store: the waiter reads its own
// sec field only after observing granted.
func (l *CNA) grant(succ, sec *cnaNode) {
	succ.sec.Store(sec)
	succ.granted.Store(1)
	succ.parker.Wake()
}

// findLocal returns the first waiter from the holder's cluster, moving
// the fully-linked remote prefix before it onto the secondary list. It
// returns nil — and defers nothing — if no linked same-cluster waiter
// exists, so an unlinked straggler costs at most one remote hand-off.
func (l *CNA) findLocal(n, head *cnaNode) *cnaNode {
	if head.cluster == n.cluster {
		return head
	}
	last := head
	for {
		nxt := last.next.Load()
		if nxt == nil {
			return nil
		}
		if nxt.cluster == n.cluster {
			l.deferRemote(n, head, last)
			return nxt
		}
		last = nxt
	}
}

// deferRemote appends the remote run [head..last] to the holder's
// secondary list. Every node in the run has a linked successor, so
// overwriting last.next cannot race a tail-swapping arrival (only the
// queue tail's next is ever written by arrivals).
func (l *CNA) deferRemote(n, head, last *cnaNode) {
	last.next.Store(nil) // sever the run from the found successor
	if sec := n.sec.Load(); sec != nil {
		sec.secTail.Load().next.Store(head)
		sec.secTail.Store(last)
	} else {
		head.secTail.Store(last)
		n.sec.Store(head)
	}
}
