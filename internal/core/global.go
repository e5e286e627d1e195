package core

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// GlobalBO is the thread-oblivious global test-and-test-and-set lock
// used by the C-BO-* constructions. Per the paper (§4.1.1), cohort
// global locks are expected to be lightly contended — one contender
// per cluster at most — so waiters spin continuously without backoff,
// like a "bare bones" test-and-test-and-set lock. It also implements
// AbortableGlobal (a BO lock is trivially abortable: a waiter just
// stops trying).
type GlobalBO struct {
	state atomic.Int32
	_     numa.Pad
}

// NewGlobalBO returns an unlocked global BO lock.
func NewGlobalBO() *GlobalBO { return &GlobalBO{} }

// Lock spins until the lock is acquired.
func (l *GlobalBO) Lock(_ *numa.Proc) {
	for i := 0; ; i++ {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
			return
		}
		spin.Poll(i)
	}
}

// TryLock spins until acquisition or the deadline.
func (l *GlobalBO) TryLock(_ *numa.Proc, deadline int64) bool {
	for i := 0; ; i++ {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
			return true
		}
		if i&31 == 31 && spin.Expired(deadline) {
			return false
		}
		spin.Poll(i)
	}
}

// Unlock releases the lock; any thread may call it.
func (l *GlobalBO) Unlock(_ *numa.Proc) {
	l.state.Store(0)
}
