package spin

import (
	"runtime"
	"sync"
)

// yield deschedules the caller; tests swap it to count yields.
var yield = runtime.Gosched

// CPUs reports the processors goroutines run on: GOMAXPROCS.
func CPUs() int { return runtime.GOMAXPROCS(0) }

// Mutex is a blocking lock, sync.Mutex in real mode. The zero value is
// unlocked.
type Mutex struct{ mu sync.Mutex }

// Lock blocks until the mutex is held.
func (m *Mutex) Lock() { m.mu.Lock() }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.mu.Unlock() }
