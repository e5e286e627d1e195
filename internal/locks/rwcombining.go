package locks

import "repro/internal/numa"

// RWCombining turns any RWMutex into a combining reader-writer
// executor: a Combining over the lock's exclusive face, with shared
// closures run under one RLock/RUnlock each, as ExecFromRWMutex runs
// them. Writes are combined; reads share the lock's own shared mode,
// so concurrent readers coexist instead of queueing behind a combiner.
// Over an RWFromMutex-adapted exclusive lock a read takes the mutex
// itself: outside the combiner, still excluded by its batches.
//
// The underlying lock must be fresh (not shared with direct users).
// Ops/Batches and Occupancy/OccupancyEstimate count exclusive requests
// only.
type RWCombining struct {
	Combining
	l RWMutex
}

// NewRWCombiningAdaptive returns a combining reader-writer executor
// over l for the topology, load-adaptive on its exclusive side like
// NewCombiningAdaptive.
func NewRWCombiningAdaptive(topo *numa.Topology, l RWMutex) *RWCombining {
	c := &RWCombining{l: l}
	c.init(topo, l)
	return c
}

// ExecShared runs fn under one shared acquisition of the underlying
// lock.
func (c *RWCombining) ExecShared(p *numa.Proc, fn func()) {
	c.l.RLock(p)
	fn()
	c.l.RUnlock(p)
}

// Interface conformance check.
var _ RWExecutor = (*RWCombining)(nil)
