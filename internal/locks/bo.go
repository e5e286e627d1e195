package locks

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// Fib-BO's backoff window, in pause units: the Fibonacci-backoff
// variant the paper's memcached and malloc tables run as "Fib-BO".
const (
	boMinPause = 16
	boMaxPause = 8192
)

// BO is the test-and-test-and-set lock with Fibonacci backoff (the
// paper's Fib-BO). It is trivially thread-oblivious: any thread may
// store the release.
type BO struct {
	state atomic.Int32 // 0 free, 1 held
	_     numa.Pad
}

// NewBO returns a Fib-BO lock.
func NewBO() *BO { return &BO{} }

// Lock acquires the lock, backing off between failed attempts.
func (l *BO) Lock(p *numa.Proc) {
	if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
		return
	}
	b := spin.NewBackoff(spin.PolicyFibonacci, boMinPause, boMaxPause, p.Rand())
	for {
		for l.state.Load() != 0 {
			b.Wait()
		}
		if l.state.CompareAndSwap(0, 1) {
			return
		}
		b.Wait()
	}
}

// Unlock releases the lock. Any thread may release; the paper relies
// on this thread-obliviousness.
func (l *BO) Unlock(_ *numa.Proc) {
	l.state.Store(0)
}
