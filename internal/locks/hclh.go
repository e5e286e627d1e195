package locks

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// Queue-node grant states shared by the hierarchical queue locks.
const (
	qWait    int32 = 0
	qGranted int32 = 1
)

// qNode is a queue record used by HCLH and FC-MCS: an explicit
// successor link plus a grant flag the owner spins on. One node per
// (lock, proc); standard MCS reuse rules apply.
type qNode struct {
	next   atomic.Pointer[qNode]
	status atomic.Int32
	parker spin.Parker
	_      numa.Pad
}

// localTail is a padded per-cluster collection-queue tail.
type localTail struct {
	ptr atomic.Pointer[qNode]
	_   numa.Pad
}

// HCLH is the hierarchical CLH lock of Luchangco, Nussbaum and Shavit:
// requests gather in a per-cluster queue; the thread at the head of a
// cluster queue (the "master") waits a combining window, closes the
// local queue, and splices the whole batch into a single global queue,
// where grants proceed in FIFO order.
//
// Deviation from the original (documented in DESIGN.md): batch chains
// use explicit MCS-style next links rather than CLH implicit links and
// tagged pointers. The properties the paper's evaluation exercises —
// batch formation per cluster, the SWAP contention bottleneck on the
// local tail, the master's wait-vs-short-batch tension, and
// FIFO-after-splice ordering — are preserved.
type HCLH struct {
	gtail  atomic.Pointer[qNode]
	_      numa.Pad
	ltails []localTail
	nodes  []qNode
}

// DefaultHCLHWindow is how long (in pause units) a cluster master
// lingers before closing its cluster's queue, the HCLH merge tradeoff:
// long enough (~several µs) that arrivals inside the window join the
// master's batch. The paper calls out exactly this tension:
// the master "must either wait for a long period or globally merge an
// unacceptably short local queue".
const DefaultHCLHWindow = 2048

// NewHCLH returns an HCLH lock for the given topology.
func NewHCLH(topo *numa.Topology) *HCLH {
	l := &HCLH{
		ltails: make([]localTail, topo.Clusters()),
		nodes:  make([]qNode, topo.MaxProcs()),
	}
	for i := range l.nodes {
		l.nodes[i].parker = spin.MakeParker()
	}
	return l
}

// Lock enqueues into the cluster queue; the cluster master splices the
// batch into the global queue.
func (l *HCLH) Lock(p *numa.Proc) {
	n := &l.nodes[p.ID()]
	n.next.Store(nil)
	n.status.Store(qWait)

	lt := &l.ltails[p.Cluster()]
	pred := lt.ptr.Swap(n)
	if pred != nil {
		// Mid-batch: link in and wait to be granted (the grant arrives
		// after our batch is spliced and our predecessor finishes).
		pred.next.Store(n)
		n.parker.Wait(func() bool { return n.status.Load() != qWait })
		return
	}

	// We are the cluster master. Linger to let the batch grow, then
	// close the local queue and splice the chain [n..end] globally.
	spin.Pause(DefaultHCLHWindow)
	end := lt.ptr.Swap(nil)
	// end is the last node that swapped in; ensure the chain's links
	// are all published before handing the chain to the global queue.
	for cur := n; cur != end; {
		var nxt *qNode
		for i := 0; ; i++ {
			if nxt = cur.next.Load(); nxt != nil {
				break
			}
			spin.Poll(i)
		}
		cur = nxt
	}

	gpred := l.gtail.Swap(end)
	if gpred == nil {
		return // global queue was empty: the master owns the lock
	}
	gpred.next.Store(n)
	n.parker.Wait(func() bool { return n.status.Load() != qWait })
}

// Unlock passes the lock down the spliced global chain, or empties it.
func (l *HCLH) Unlock(p *numa.Proc) {
	n := &l.nodes[p.ID()]
	next := n.next.Load()
	if next == nil {
		if l.gtail.CompareAndSwap(n, nil) {
			return
		}
		for i := 0; ; i++ {
			if next = n.next.Load(); next != nil {
				break
			}
			spin.Poll(i)
		}
	}
	next.status.Store(qGranted)
	next.parker.Wake()
}
