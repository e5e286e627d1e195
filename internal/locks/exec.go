package locks

import (
	"sync/atomic"

	"repro/internal/numa"
)

// Executor is delegated mutual exclusion: Exec runs fn inside the
// executor's exclusion domain and returns once fn has run. It is the
// seam that lets a data structure hand its critical sections to the
// lock instead of holding the lock across them — the flat-combining
// idea FC-MCS derives from, generalized over any underlying Mutex.
//
// The contract mirrors Lock/Unlock: at most one closure runs at a
// time across all procs, every submitted closure runs exactly once,
// and the closure's effects happen-before Exec's return. fn must not
// call back into the same executor (or block waiting on another
// proc's Exec): closures may be executed by a combiner thread that is
// serving many procs' requests, so a nested submission deadlocks the
// batch.
type Executor interface {
	Exec(p *numa.Proc, fn func())
}

// ExecFromMutex adapts any mutual-exclusion lock to the RWExecutor
// interface by bracketing each closure with Lock/Unlock: correct, one
// acquisition per closure. It is ExecFromRWMutex over RWFromMutex, so
// shared closures serialize too.
func ExecFromMutex(m Mutex) RWExecutor {
	return ExecFromRWMutex(RWFromMutex(m))
}

// CountAcquisitions returns m instrumented to add one to n on every
// Lock call — the measurement seam behind the amortization exhibits.
// It is CountRWAcquisitions over RWFromMutex with both counters n. n
// may be shared across instances (a sharded store's locks summing
// into one counter); interposed beneath a Combining executor, a
// combined batch counts as the single acquisition it is.
func CountAcquisitions(m Mutex, n *atomic.Uint64) Mutex {
	return CountRWAcquisitions(RWFromMutex(m), n, n)
}

// Combining turns any Mutex into a combining lock: one combiner core
// whose bracket is Lock/Unlock of the underlying lock, so same-cluster
// closures run back to back on one thread under a single acquisition.
// The underlying lock must be fresh (not shared with direct Lock/
// Unlock users): the executor owns its exclusion domain. Amortization
// is reported by Ops/Batches, load by Occupancy/OccupancyEstimate.
type Combining struct {
	combiner
}

// NewCombiningAdaptive returns a combining executor over m for the
// topology. It is load-adaptive: election patience and harvest passes
// follow the cluster's occupancy estimate.
func NewCombiningAdaptive(topo *numa.Topology, m Mutex) *Combining {
	c := &Combining{}
	c.init(topo, m)
	return c
}

// ExecShared runs fn through Exec: the exclusive shared face that
// RWFromMutex gives a mutex, so every executor is an RWExecutor.
func (c *Combining) ExecShared(p *numa.Proc, fn func()) { c.Exec(p, fn) }

// Interface conformance check.
var _ RWExecutor = (*Combining)(nil)
