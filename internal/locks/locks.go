// Package locks implements the classic and prior-art lock algorithms
// the paper builds on and compares against: the test-and-test-and-set
// lock with Fibonacci backoff (Fib-BO, the one BO lock here), the
// ticket lock, the MCS and CLH queue locks, Scott's abortable CLH
// (A-CLH), the hierarchical backoff lock (HBO) of Radović and
// Hagersten with an abortable variant, the hierarchical CLH lock
// (HCLH) of Luchangco et al., the flat-combining MCS lock (FC-MCS) of
// Dice et al., and a pthread-style blocking mutex.
//
// Blocking locks share the Mutex interface and abortable ones (A-CLH,
// A-HBO) the TryMutex interface; both thread per-thread context
// (*numa.Proc) explicitly: queue locks need a stable identity
// for their queue nodes, and NUMA-aware locks need the cluster id.
package locks

import (
	"time"

	"repro/internal/numa"
)

// Mutex is a mutual-exclusion lock whose operations carry the calling
// thread's processor handle. Lock blocks until the lock is held;
// Unlock must be called by the holder (except where an implementation
// documents thread-obliviousness).
type Mutex interface {
	Lock(p *numa.Proc)
	Unlock(p *numa.Proc)
}

// TryMutex is an abortable mutual-exclusion lock in the sense of Scott
// and Scherer: a thread may abandon its acquisition attempt after a
// patience interval. TryLockFor reports whether the lock was acquired;
// on false, the thread holds nothing and owes nothing.
type TryMutex interface {
	TryLockFor(p *numa.Proc, patience time.Duration) bool
	Unlock(p *numa.Proc)
}
