package locks_test

import (
	"testing"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
)

func TestRWPerClusterOverMCS(t *testing.T) {
	topo := numa.New(4, 16)
	l := locks.NewRWPerCluster(topo, locks.NewMCS(topo))
	locktest.Check(t, topo, locks.ExecFromRWMutex(l), 8, 4, 200)
}

func TestRWPerClusterOverCNA(t *testing.T) {
	topo := numa.New(4, 16)
	l := locks.NewRWPerCluster(topo, locks.NewCNA(topo))
	locktest.Check(t, topo, locks.ExecFromRWMutex(l), 8, 4, 200)
}

// TestRWFromMutexIsExclusive verifies the adapter is a correct RWMutex
// (Check skips the coexistence phase for it) and reports itself as
// not sharing reads.
func TestRWFromMutexIsExclusive(t *testing.T) {
	topo := numa.New(4, 16)
	l := locks.RWFromMutex(locks.NewMCS(topo))
	if locks.SharesReads(l) {
		t.Fatal("RWFromMutex adapter claims shared reads")
	}
	locktest.Check(t, topo, locks.ExecFromRWMutex(l), 8, 4, 200)
}

// TestSharesReadsDefault: a genuine RW lock (no ReadSharer method)
// reports shared reads.
func TestSharesReadsDefault(t *testing.T) {
	topo := numa.New(2, 4)
	if !locks.SharesReads(locks.NewRWPerCluster(topo, locks.NewMCS(topo))) {
		t.Fatal("RWPerCluster should report shared reads")
	}
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
