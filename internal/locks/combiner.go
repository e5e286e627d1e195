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
// cheap, slightly-stale estimate an admission policy wants — and only
// same-cluster procs touch it, so reading it never crosses sockets.
type occSlot struct {
	n atomic.Int32
	_ numa.Pad
}

// policy is how a combiner scales with its cluster's occupancy: a
// poster lingers min(occupancy, patienceCap) base windows before it
// tries to elect itself, and a combiner makes 1 + log2(occupancy)
// harvest sweeps per acquisition, clamped to [minPasses, maxPasses].
type policy struct {
	patienceCap          int32
	minPasses, maxPasses int
}

var (
	// fixedPolicy pins both knobs to the FC-MCS constants: one base
	// patience window, DefaultFCPasses sweeps, whatever the load.
	fixedPolicy = policy{patienceCap: 1, minPasses: DefaultFCPasses, maxPasses: DefaultFCPasses}

	// adaptivePolicy lets both follow the load, because the constants
	// are mistuned at both ends of it (DESIGN.md §4): idle, the second
	// pass and its pause stretch every solo operation for a batch that
	// cannot form; saturated, a one-size window makes waiters compete
	// for the gate just as a long batch was about to pay off. Passes
	// stop at 4 however high occupancy climbs: each one adds a full
	// combinePassPause of lock hold time to everyone's latency.
	adaptivePolicy = policy{patienceCap: 8, minPasses: 1, maxPasses: 4}
)

// patience is the election patience window at the given occupancy,
// which counts the caller's own request and so is at least one.
func (pol policy) patience(occ int32) int {
	if occ > pol.patienceCap {
		occ = pol.patienceCap
	}
	return int(occ) * electAfter
}

// passes is the harvest pass count at the given occupancy.
func (pol policy) passes(occ int32) int {
	n := 1
	for o := occ; o > 1; o >>= 1 {
		n++
	}
	if n < pol.minPasses {
		n = pol.minPasses
	}
	if n > pol.maxPasses {
		n = pol.maxPasses
	}
	return n
}

// combiner is the publication-slot combining core every comb-*
// executor is built from: procs publish closures in per-proc slots,
// one proc per cluster elects itself combiner through the cluster's
// gate (the FC-MCS election machinery, same patience window), and the
// combiner runs its cluster's whole batch of posted closures inside
// ONE bracket — one Lock/Unlock of m. Same-cluster critical sections
// therefore execute back to back on one thread, so the data they touch
// never leaves the combiner's cache, and the underlying lock is
// acquired once per batch instead of once per operation.
//
// The bracket is a value: an exclusive combiner is handed the lock
// itself, a shared one the lock's read face (sharedFace).
type combiner struct {
	m Mutex
	// shares records that the bracket admits concurrent holders, and
	// turns on the lone-poster bypass, nothing else: a proc with no
	// same-cluster peer in flight has no batch to form, so it takes a
	// shareable bracket directly and the idle read path costs what
	// ExecFromRWMutex does. Under an exclusive bracket it elects
	// eagerly instead, so peers arriving while it waits for the lock
	// find a combiner to ride.
	shares bool
	pol    policy
	// active counts running combiners; posters elect eagerly while it
	// is zero (no batch anywhere to ride) and otherwise linger the
	// patience window to be harvested instead of competing.
	active  atomic.Int32
	ops     atomic.Uint64 // closures executed
	batches atomic.Uint64 // brackets taken
	_       numa.Pad
	occ     []occSlot
	gates   []combinerGate
	slots   []combSlot
	members [][]int // each cluster's proc ids, the combiner's scan order
}

func (c *combiner) init(topo *numa.Topology, m Mutex, shares bool, pol policy) {
	c.m, c.shares, c.pol = m, shares, pol
	c.occ = make([]occSlot, topo.Clusters())
	c.gates = make([]combinerGate, topo.Clusters())
	c.slots = make([]combSlot, topo.MaxProcs())
	c.members = clusterMembers(topo)
	for i := range c.slots {
		c.slots[i].parker = spin.MakeParker()
	}
}

// Exec publishes fn and waits until a combiner (possibly this proc)
// has run it, or runs it directly on the bypass path.
func (c *combiner) Exec(p *numa.Proc, fn func()) {
	oc := &c.occ[p.Cluster()]
	if oc.n.Add(1) == 1 && c.shares {
		// No same-cluster peer has a request in flight (peers decrement
		// only after their slot is idle again), so no batch can form
		// around this closure.
		c.m.Lock(p)
		fn()
		c.m.Unlock(p)
		c.batches.Add(1)
		c.ops.Add(1)
		oc.n.Add(-1)
		return
	}
	slot := &c.slots[p.ID()]
	slot.fn = fn
	slot.state.Store(combPosted)

	gate := &c.gates[p.Cluster()]
	for i := 0; slot.state.Load() == combPosted; i++ {
		// Bypass the patience window when no combiner is running
		// anywhere: there is no batch to ride, so elect immediately
		// (the low-contention fast path costs one gate CAS).
		eager := c.active.Load() == 0
		if (eager || i >= c.pol.patience(oc.n.Load())) && gate.held.Load() == 0 && gate.held.CompareAndSwap(0, 1) {
			if slot.state.Load() == combPosted {
				c.combine(p)
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

// combine runs the cluster's posted closures — the combiner's own
// among them — inside one bracket. Called with the cluster gate held.
func (c *combiner) combine(p *numa.Proc) {
	cl := p.Cluster()
	c.active.Add(1)
	c.m.Lock(p)
	// Sample occupancy once per bracket: the estimate drifting
	// mid-batch only mis-sizes this batch's tail, never correctness.
	passes := c.pol.passes(c.occ[cl].n.Load())
	ran := uint64(0)
	for pass := 0; pass < passes; pass++ {
		if pass > 0 {
			// Let in-flight requests publish, so batches form even at
			// moderate per-cluster occupancy (same rationale as the
			// FC-MCS harvest pause).
			spin.Pause(combinePassPause)
		}
		ran += c.harvest(cl)
	}
	// Rescue sweep: serve posters on clusters that have no combiner of
	// their own. Cluster-local batching is a locality preference, not a
	// correctness boundary, and the sweep matters for liveness when
	// spinning workers outnumber GOMAXPROCS: a cluster whose members
	// are all starved of processor time may never win an election, and
	// its posted closures would wait unboundedly while other clusters'
	// combiners cycle the lock. Combiners under a shared bracket run
	// concurrently, so what serializes a cluster's slot harvest is its
	// gate, and a remote cluster is swept only after winning it. The
	// try never blocks, so two sweepers cannot deadlock; a poster that
	// finds its gate taken by a sweeper keeps polling and is harvested
	// or wins the gate once the sweeper leaves; a cluster whose own
	// combiner holds the gate is skipped — that combiner is already
	// waiting on m and will serve it with locality.
	for rc := range c.members {
		if rc == cl {
			continue
		}
		if g := &c.gates[rc]; g.held.Load() == 0 && g.held.CompareAndSwap(0, 1) {
			ran += c.harvest(rc)
			g.held.Store(0)
		}
	}
	c.m.Unlock(p)
	c.batches.Add(1)
	c.ops.Add(ran)
	c.active.Add(-1)
	// A combiner never blocks — it serves a batch and immediately cycles
	// into its next request — so on an oversubscribed machine it must
	// hand the processor around at batch boundaries or the posters it
	// just woke wait a full preemption quantum to consume their results.
	spin.Yield()
}

// harvest runs every closure cluster's procs have posted and reports
// how many. Called inside the bracket with cluster's gate held.
func (c *combiner) harvest(cluster int) (ran uint64) {
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

// Ops reports the number of closures executed so far; read it while
// posters are quiescent.
func (c *combiner) Ops() uint64 { return c.ops.Load() }

// Batches reports the number of acquisitions of the underlying lock so
// far; Ops/Batches is the amortization factor the construction buys.
func (c *combiner) Batches() uint64 { return c.batches.Load() }

// Occupancy reports cluster's current in-flight request estimate
// (racy; diagnostics, tools and tests only).
func (c *combiner) Occupancy(cluster int) int { return int(c.occ[cluster].n.Load()) }

// OccupancyEstimate reports the in-flight request estimate summed over
// clusters (racy; diagnostics, tools and tests only).
func (c *combiner) OccupancyEstimate() int {
	n := 0
	for i := range c.occ {
		n += int(c.occ[i].n.Load())
	}
	return n
}
