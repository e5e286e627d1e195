package locks

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// Publication-slot states for the combining core.
const (
	combIdle   int32 = 0 // no outstanding request
	combPosted int32 = 1 // closure published, waiting to run
	combDone   int32 = 2 // closure has run; poster may return
)

// combSlot is one proc's publication record: the posted closure and
// its state, padded so posters on different procs never share a line.
// fn is written by the owning proc before the posted store and read
// by a combiner after observing posted, so the atomic state carries
// all the ordering.
type combSlot struct {
	state  atomic.Int32
	fn     func()
	parker spin.Parker
	_      numa.Pad
}

// occSlot is one cluster's posted-request count, padded so clusters
// never share a line. It is the GCR-style occupancy signal: how many
// procs of this cluster currently have a request in flight through the
// combiner. Incremented before a slot is posted and decremented after
// the closure completes, so it over-approximates the posted-slot count
// by at most the requests in their brief post/return windows — the
// cheap, slightly-stale estimate the patience and pass policy reads —
// and only same-cluster procs write it.
//
// Invariant: a slot is posted only while its cluster's occupancy is
// >= 1; the decrement follows the slot's return to idle (and the
// release of a gate the request held). Two things lean on it. An
// increment that observes the count rising from zero proves the
// cluster has no poster and no elected combiner, so the caller may act
// alone; and a count of zero proves the cluster has no posted slot, so
// another cluster's rescue sweep may skip it after one load.
type occSlot struct {
	n atomic.Int32
	_ numa.Pad
}

// The combiner scales with its cluster's occupancy, because fixed
// constants are mistuned at both ends of the load (DESIGN.md §4):
// idle, a second pass and its pause stretch every solo operation for a
// batch that cannot form; saturated, a one-size window makes waiters
// compete for the gate just as a long batch was about to pay off.
const (
	// patienceCap bounds the election patience, in electAfter windows.
	patienceCap = 8
	// maxPasses bounds the harvest sweeps per acquisition however high
	// occupancy climbs: each one adds a full combinePassPause of lock
	// hold time to everyone's latency.
	maxPasses = 4
)

// patience is the election patience window at the given occupancy,
// which counts the caller's own request and so is at least one: a
// poster lingers min(occupancy, patienceCap) windows before it tries
// to elect itself.
func patience(occ int32) int {
	return int(min(occ, patienceCap)) * electAfter
}

// passes is the harvest pass count at the given occupancy:
// 1 + log2(occupancy), at most maxPasses.
func passes(occ int32) int {
	n := 1
	for o := occ; o > 1 && n < maxPasses; o >>= 1 {
		n++
	}
	return n
}

// combiner is the publication-slot combining core every comb-a-*
// executor is built from: procs publish closures in per-proc slots,
// one proc per cluster elects itself combiner through the cluster's
// gate (the FC-MCS election machinery, its patience window scaled by
// occupancy), and the
// combiner runs its cluster's whole batch of posted closures inside
// ONE bracket — one Lock/Unlock of m. Same-cluster critical sections
// therefore execute back to back on one thread, so the data they touch
// never leaves the combiner's cache, and the underlying lock is
// acquired once per batch instead of once per operation.
//
// A proc with no same-cluster peer in flight — no batch to form —
// takes the solo path: it wins the cluster gate and combines with its
// closure in hand, never published, so the idle path costs one gate
// CAS over the bare bracket and peers arriving while it waits for the
// lock still find a combiner to ride.
//
// Every field of the struct itself is written once, by init: what
// requests write lives on per-cluster (occ, gates) and per-proc (slots)
// lines, so no line is written by two clusters except a gate or slot
// through the election and harvest protocols.
type combiner struct {
	m       Mutex
	occ     []occSlot
	gates   []combinerGate
	slots   []combSlot
	members [][]int // each cluster's proc ids, the combiner's scan order
}

func (c *combiner) init(topo *numa.Topology, m Mutex) {
	c.m = m
	c.occ = make([]occSlot, topo.Clusters())
	c.gates = make([]combinerGate, topo.Clusters())
	c.slots = make([]combSlot, topo.MaxProcs())
	c.members = clusterMembers(topo)
	for i := range c.slots {
		c.slots[i].parker = spin.MakeParker()
	}
}

// Exec runs fn inside the bracket: in hand on the solo path, or by
// publishing it and waiting until a combiner (possibly this proc) has
// run it.
func (c *combiner) Exec(p *numa.Proc, fn func()) {
	oc := &c.occ[p.Cluster()]
	gate := &c.gates[p.Cluster()]
	if oc.n.Add(1) == 1 {
		// No same-cluster peer has a request in flight (peers decrement
		// only after their slot is idle and their gate free), so no
		// batch has formed around this closure. Only another cluster's
		// rescue sweep can hold the gate now; it finds nothing of ours
		// to serve, so post like anyone else.
		if gate.held.CompareAndSwap(0, 1) {
			c.combine(p, fn)
			gate.held.Store(0)
			oc.n.Add(-1)
			return
		}
	}
	slot := &c.slots[p.ID()]
	slot.fn = fn
	slot.state.Store(combPosted)

	for i := 0; slot.state.Load() == combPosted; i++ {
		// Bypass the patience window when no combiner is running
		// anywhere: there is no batch to ride, so elect immediately.
		// Otherwise linger to be harvested instead of competing.
		if gate.held.Load() == 0 && (i >= patience(oc.n.Load()) || c.quiet()) && gate.held.CompareAndSwap(0, 1) {
			if slot.state.Load() == combPosted {
				c.combine(p, nil)
			}
			gate.held.Store(0)
			break // combine always runs the combiner's own closure
		}
		spin.Poll(i)
	}
	slot.parker.Wait(func() bool { return slot.state.Load() == combDone })
	slot.state.Store(combIdle)
	oc.n.Add(-1)
}

// quiet reports whether no cluster has an elected combiner (or a
// sweeper standing in for one): every gate reads free.
func (c *combiner) quiet() bool {
	for i := range c.gates {
		if c.gates[i].held.Load() != 0 {
			return false
		}
	}
	return true
}

// combine runs the cluster's posted closures inside one bracket.
// Called with the cluster gate held. The combiner's own closure is
// among the posted ones (own == nil), or is handed over unpublished by
// a solo caller and runs first.
func (c *combiner) combine(p *numa.Proc, own func()) {
	cl := p.Cluster()
	oc := &c.occ[cl]
	c.m.Lock(p)
	ran := 0
	if own != nil {
		own()
		ran = 1
	}
	// Sample occupancy once per bracket: the estimate drifting
	// mid-batch only mis-sizes this batch's tail, never correctness. A
	// solo caller still alone after its closure has nobody to harvest.
	if occ := oc.n.Load(); own == nil || occ > 1 {
		for pass := range passes(occ) {
			if pass > 0 {
				// Let in-flight requests publish, so batches form even
				// at moderate per-cluster occupancy (same rationale as
				// the FC-MCS harvest pause).
				spin.Pause(combinePassPause)
			}
			ran += c.harvest(cl)
		}
	}
	// Rescue sweep: serve posters on clusters that have no combiner of
	// their own. Cluster-local batching is a locality preference, not a
	// correctness boundary, and the sweep matters for liveness when
	// spinning workers outnumber GOMAXPROCS: a cluster whose members
	// are all starved of processor time may never win an election, and
	// its posted closures would wait unboundedly while other clusters'
	// combiners cycle the lock. A cluster whose occupancy reads zero
	// has no posted slot (occSlot's invariant) and costs that one load.
	// A remote cluster is swept only after a try-CAS wins its gate. The
	// try never blocks, so two sweepers cannot deadlock; a poster that
	// finds its gate taken by a sweeper keeps polling and is harvested
	// or wins the gate once the sweeper leaves; a cluster whose own
	// combiner holds the gate is skipped — that combiner is already
	// waiting on m and will serve it with locality.
	for rc := range c.members {
		if rc == cl || c.occ[rc].n.Load() == 0 {
			continue
		}
		if g := &c.gates[rc]; g.held.Load() == 0 && g.held.CompareAndSwap(0, 1) {
			ran += c.harvest(rc)
			g.held.Store(0)
		}
	}
	c.m.Unlock(p)
	// A combiner never blocks — it serves a batch and immediately cycles
	// into its next request — so on an oversubscribed machine it must
	// hand the processor around at batch boundaries or the posters it
	// just woke wait a full preemption quantum to consume their results.
	// After a batch of one there is nobody to hand it to.
	if ran > 1 {
		spin.Yield()
	}
}

// harvest runs every closure cluster's procs have posted and reports
// how many. Called inside the bracket with cluster's gate held.
func (c *combiner) harvest(cluster int) (ran int) {
	for _, id := range c.members[cluster] {
		s := &c.slots[id]
		if s.state.Load() != combPosted {
			continue
		}
		fn := s.fn
		s.fn = nil
		fn()
		s.state.Store(combDone)
		s.parker.Wake()
		ran++
	}
	return ran
}
