package locks_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
	"repro/internal/registry"
)

func TestRWPerClusterOverMCS(t *testing.T) {
	topo := numa.New(4, 16)
	x := locks.ExecFromRWMutex(locks.NewRWPerCluster(topo, locks.NewMCS(topo)))
	locktest.Coexist(t, topo, x, 8)
	locktest.Check(t, topo, x, 8, 4, 200)
}

func TestRWPerClusterOverCNA(t *testing.T) {
	topo := numa.New(4, 16)
	x := locks.ExecFromRWMutex(locks.NewRWPerCluster(topo, locks.NewCNA(topo)))
	locktest.Coexist(t, topo, x, 8)
	locktest.Check(t, topo, x, 8, 4, 200)
}

// TestRWFromMutexIsExclusive verifies the adapter is a correct RWMutex
// whose shared mode is its exclusive one: every RLock is one Lock of
// the mutex.
func TestRWFromMutexIsExclusive(t *testing.T) {
	topo := numa.New(4, 16)
	var n atomic.Uint64
	l := locks.RWFromMutex(locks.CountAcquisitions(locks.NewMCS(topo), &n))
	p := topo.Proc(0)
	l.RLock(p)
	l.RUnlock(p)
	if got := n.Load(); got != 1 {
		t.Fatalf("RLock took %d acquisitions of the mutex, want 1", got)
	}
	locktest.Check(t, topo, locks.ExecFromRWMutex(l), 8, 4, 200)
}

// TestRWPerClusterDrains: over a plain and over a cohort writer lock,
// reads leave no reader count behind — each writer Lock waits for
// every cluster's count to drain, so a leak would hang the loop.
func TestRWPerClusterDrains(t *testing.T) {
	for _, name := range []string{"mcs", "c-bo-mcs"} {
		t.Run(name, func(t *testing.T) {
			topo := numa.New(2, 4)
			l := locks.NewRWPerCluster(topo, registry.MustLookup(name).NewMutex(topo))
			p := topo.Proc(0)
			drained := make(chan struct{})
			go func() {
				for i := 0; i < 1000; i++ {
					l.RLock(p)
					l.RUnlock(p)
					l.Lock(p)
					l.Unlock(p)
				}
				close(drained)
			}()
			select {
			case <-drained:
			case <-time.After(30 * time.Second):
				t.Fatal("a writer never drained the readers: reader accounting leaked")
			}
		})
	}
}
