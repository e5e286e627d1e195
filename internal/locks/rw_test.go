package locks_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
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

// TestRWPerClusterDrains: after heavy mixed traffic the reader
// accounting returns to zero.
func TestRWPerClusterDrains(t *testing.T) {
	topo := numa.New(2, 4)
	l := locks.NewRWPerCluster(topo, locks.NewMCS(topo))
	p := topo.Proc(0)
	for i := 0; i < 1000; i++ {
		l.RLock(p)
		l.RUnlock(p)
		l.Lock(p)
		l.Unlock(p)
	}
	if n := l.ActiveReaders(); n != 0 {
		t.Fatalf("ActiveReaders = %d after drain", n)
	}
}
