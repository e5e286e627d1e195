package locks

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// fcSlot is a per-proc publication record scanned by the combiner:
// posted is set by a requester and cleared by the combiner that
// enlists its node.
type fcSlot struct {
	posted atomic.Bool
	_      numa.Pad
}

// combinerGate is a padded per-cluster TATAS lock electing the
// flat-combining combiner.
type combinerGate struct {
	held atomic.Int32
	_    numa.Pad
}

// FCMCS is the flat-combining MCS lock of Dice, Marathe and Shavit
// (SPAA 2011), the strongest prior NUMA-aware lock in the paper's
// comparison. Threads publish acquisition requests in a per-cluster
// publication array; a combiner — elected with a cluster-local TATAS
// gate — harvests posted requests into an MCS chain and splices the
// chain into a single global MCS queue. Grants then flow down the
// chain exactly as in HCLH: the global queue is an MCS lock, and
// Unlock is its hand-down.
//
// Deviation (documented in DESIGN.md): the publication list is a fixed
// per-proc slot array rather than a dynamic list with aging, and the
// combiner makes a fixed number of harvest passes. Batching behaviour
// and the combiner-election cost — what the evaluation exercises — are
// preserved.
type FCMCS struct {
	q     *MCS
	topo  *numa.Topology
	gates []combinerGate
	slots []fcSlot
}

// DefaultFCPasses is how many harvest sweeps a combiner makes over its
// cluster's slots per election: more passes form longer batches
// (arrivals during the batch join it) at the cost of a later splice.
const DefaultFCPasses = 2

// NewFCMCS returns an FC-MCS lock for the given topology.
func NewFCMCS(topo *numa.Topology) *FCMCS {
	return &FCMCS{
		q:     NewMCS(topo),
		topo:  topo,
		gates: make([]combinerGate, topo.Clusters()),
		slots: make([]fcSlot, topo.MaxProcs()),
	}
}

// electAfter is how long a requester lingers on its publication slot
// before trying to become the combiner itself. Flat combining lives on
// this patience: arrivals inside the window ride an existing (or
// about-to-be-elected) combiner's harvest instead of each splicing a
// batch of one.
const electAfter = 512

// Lock publishes a request and waits for a grant, becoming the
// cluster's combiner only after a patience window.
func (l *FCMCS) Lock(p *numa.Proc) {
	slot := &l.slots[p.ID()]
	node := l.q.node(p)
	slot.posted.Store(true)

	gate := &l.gates[p.Cluster()]
	for i := 0; slot.posted.Load(); i++ {
		// Bypass at low contention (the optimization the paper credits
		// FC-MCS with, §4.1.3): when the global queue is empty there is
		// no batch to wait for, so elect immediately.
		eager := l.q.tail.Load() == nil
		if (eager || i >= electAfter) && gate.held.Load() == 0 && gate.held.CompareAndSwap(0, 1) {
			if slot.posted.Load() {
				l.combine(p.Cluster())
			}
			gate.held.Store(0)
			break // combine always enlists the combiner's own request
		}
		spin.Poll(i)
	}
	node.parker.Wait(func() bool { return node.locked.Load() == 0 })
}

// combinePassPause is the wait between combiner harvest passes, in
// pause units: long enough for in-flight requests to publish, so
// batches form even at moderate per-cluster occupancy.
const combinePassPause = 512

// combine harvests posted requests from the cluster into a chain and
// splices it into the global queue. Called with the cluster gate held.
func (l *FCMCS) combine(cluster int) {
	var head, tail *mcsNode
	for pass := 0; pass < DefaultFCPasses; pass++ {
		if pass > 0 {
			spin.Pause(combinePassPause)
		}
		for _, id := range l.topo.Members(cluster) {
			s := &l.slots[id]
			if !s.posted.Load() {
				continue
			}
			nd := l.q.nodes[id]
			nd.next.Store(nil)
			nd.locked.Store(1)
			if head == nil {
				head = nd
			} else {
				tail.next.Store(nd)
			}
			tail = nd
			s.posted.Store(false)
		}
	}
	if head == nil {
		return
	}
	gpred := l.q.tail.Swap(tail)
	if gpred == nil {
		head.locked.Store(0)
		head.parker.Wake()
		return
	}
	gpred.next.Store(head)
}

// Unlock passes the lock down the global chain, or empties it.
func (l *FCMCS) Unlock(p *numa.Proc) { l.q.Unlock(p) }
