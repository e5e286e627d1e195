package locks

import "repro/internal/numa"

// sharedFace presents a reader-writer lock's shared mode as a Mutex,
// so the combining core brackets read batches with RLock/RUnlock
// through the same two calls it brackets write batches with.
type sharedFace struct {
	l RWMutex
}

func (s sharedFace) Lock(p *numa.Proc)   { s.l.RLock(p) }
func (s sharedFace) Unlock(p *numa.Proc) { s.l.RUnlock(p) }

// RWCombining turns any RWMutex into a combining reader-writer
// executor: a Combining over the lock's exclusive face plus a second
// combiner core over its shared face — a per-cluster reader-combiner
// takes ONE RLock and runs the whole harvested batch under it, so N
// concurrent same-cluster readers cost one shared acquisition instead
// of N. Harvested reads run serially on the combiner thread, but
// reader-combiners on different clusters (and lone readers, who take
// the core's bypass) still coexist: they all hold shared mode.
//
// The underlying lock must be fresh (not shared with direct users).
// Exclusive-side amortization is reported by Ops/Batches, shared-side
// by SharedOps/SharedBatches; while uncontended every shared closure
// takes the bypass and the two shared counters advance in lockstep.
type RWCombining struct {
	Combining
	reads combiner
	l     RWMutex
}

// NewRWCombiningAdaptive returns a combining reader-writer executor
// over l for the topology, load-adaptive on both modes like
// NewCombiningAdaptive.
func NewRWCombiningAdaptive(topo *numa.Topology, l RWMutex) *RWCombining {
	c := &RWCombining{l: l}
	c.init(topo, l, false)
	c.reads.init(topo, sharedFace{l}, true)
	return c
}

// ExecShared publishes fn in shared mode and waits until it has run.
func (c *RWCombining) ExecShared(p *numa.Proc, fn func()) { c.reads.Exec(p, fn) }

// SharedOps reports the number of shared closures executed so far;
// read it while posters are quiescent.
func (c *RWCombining) SharedOps() uint64 { return c.reads.Ops() }

// SharedBatches reports the number of shared acquisitions of the
// underlying lock so far; SharedOps/SharedBatches is the read-side
// amortization factor.
func (c *RWCombining) SharedBatches() uint64 { return c.reads.Batches() }

// SharedReads passes the underlying lock's sharing property through:
// over an RWFromMutex-adapted exclusive lock the harvested "shared"
// batches still serialize, and consumers should know.
func (c *RWCombining) SharedReads() bool { return SharesReads(c.l) }

// Occupancy is the core's estimate summed over both modes.
func (c *RWCombining) Occupancy(cluster int) int {
	return c.Combining.Occupancy(cluster) + c.reads.Occupancy(cluster)
}

// OccupancyEstimate is the core's estimate summed over both modes.
func (c *RWCombining) OccupancyEstimate() int {
	return c.Combining.OccupancyEstimate() + c.reads.OccupancyEstimate()
}

// Interface conformance checks.
var (
	_ RWExecutor         = (*RWCombining)(nil)
	_ ReadSharer         = (*RWCombining)(nil)
	_ OccupancyEstimator = (*RWCombining)(nil)
)
