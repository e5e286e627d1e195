package locks

import (
	"repro/internal/numa"
	"repro/internal/spin"
)

// Pthread adapts the blocking spin.Mutex (sync.Mutex in real mode) to
// the Mutex interface. It plays the role of the paper's pthread_mutex
// baseline: an OS-arbitrated blocking lock with no NUMA awareness, the
// default that memcached and the Solaris allocator are measured with.
type Pthread struct {
	mu spin.Mutex
}

// NewPthread returns an unlocked blocking mutex.
func NewPthread() *Pthread { return &Pthread{} }

// Lock blocks until the mutex is held.
func (l *Pthread) Lock(_ *numa.Proc) { l.mu.Lock() }

// Unlock releases the mutex.
func (l *Pthread) Unlock(_ *numa.Proc) { l.mu.Unlock() }
