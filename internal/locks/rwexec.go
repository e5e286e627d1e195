package locks

import (
	"sync/atomic"

	"repro/internal/numa"
)

// RWExecutor is delegated execution with a shared mode, the executor
// analogue of RWMutex: Exec runs fn in exclusive mode under the
// Executor contract (at most one exclusive closure at a time, run
// exactly once, effects happen-before return), and ExecShared runs fn
// in shared mode — shared closures may run concurrently with one
// another, but never with an exclusive closure, and the exactly-once
// and happens-before guarantees hold for them too. It is the seam that
// lets a read-mostly data structure hand whole batches of read-only
// critical sections to the lock in one shared acquisition.
type RWExecutor interface {
	Executor
	ExecShared(p *numa.Proc, fn func())
}

// execRWMutex adapts an RWMutex to the RWExecutor interface: exclusive
// closures bracket Lock/Unlock, shared closures bracket RLock/RUnlock
// — one acquisition per closure, the non-combining baseline. Whether
// shared closures genuinely coexist is the underlying lock's property.
type execRWMutex struct {
	l RWMutex
}

func (e execRWMutex) Exec(p *numa.Proc, fn func()) {
	e.l.Lock(p)
	fn()
	e.l.Unlock(p)
}

func (e execRWMutex) ExecShared(p *numa.Proc, fn func()) {
	e.l.RLock(p)
	fn()
	e.l.RUnlock(p)
}

// ExecFromRWMutex adapts any reader-writer lock to the RWExecutor
// interface by bracketing each closure with the matching mode's
// acquire/release. Correct, not amortized; an exclusive lock adapted
// through RWFromMutex composes (shared closures then serialize).
func ExecFromRWMutex(l RWMutex) RWExecutor {
	return execRWMutex{l: l}
}

// countingRWMutex is the CountRWAcquisitions wrapper.
type countingRWMutex struct {
	inner  RWMutex
	excl   *atomic.Uint64
	shared *atomic.Uint64
}

func (c *countingRWMutex) Lock(p *numa.Proc) {
	c.excl.Add(1)
	c.inner.Lock(p)
}

func (c *countingRWMutex) Unlock(p *numa.Proc) { c.inner.Unlock(p) }

func (c *countingRWMutex) RLock(p *numa.Proc) {
	c.shared.Add(1)
	c.inner.RLock(p)
}

func (c *countingRWMutex) RUnlock(p *numa.Proc) { c.inner.RUnlock(p) }

// CountRWAcquisitions returns l instrumented to add one to excl on
// every Lock and one to shared on every RLock — the measurement seam
// behind the shared-batch amortization exhibits. The two counters may
// alias (one total-acquisitions counter) and may be shared across
// instances.
func CountRWAcquisitions(l RWMutex, excl, shared *atomic.Uint64) RWMutex {
	return &countingRWMutex{inner: l, excl: excl, shared: shared}
}

// Interface conformance checks.
var (
	_ RWExecutor = execRWMutex{}
	_ RWMutex    = (*countingRWMutex)(nil)
)
