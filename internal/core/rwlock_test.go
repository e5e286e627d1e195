package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/numa"
)

// newCBOMCS is C-BO-MCS with explicit slots: a global BO lock over
// per-cluster MCS locks.
func newCBOMCS(topo *numa.Topology) *CohortLock {
	return NewCohortLock(topo, NewGlobalBO(), func(int) Local { return locks.NewMCS(topo) })
}

func TestRWWriterExclusion(t *testing.T) {
	topo := numa.New(4, 16)
	l := locks.NewRWPerCluster(topo, newCBOMCS(topo))
	var inCS atomic.Int32
	var violations atomic.Int32
	var counter int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			for k := 0; k < 300; k++ {
				l.Lock(p)
				if inCS.Add(1) != 1 {
					violations.Add(1)
				}
				counter++
				inCS.Add(-1)
				l.Unlock(p)
			}
		}(i)
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("writer exclusion violated %d times", violations.Load())
	}
	if counter != 8*300 {
		t.Fatalf("counter = %d, want %d", counter, 8*300)
	}
}

func TestRWReadersCoexist(t *testing.T) {
	topo := numa.New(4, 16)
	l := locks.NewRWPerCluster(topo, newCBOMCS(topo))
	const readers = 8
	var concurrent atomic.Int32
	var peak atomic.Int32
	barrier := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			l.RLock(p)
			n := concurrent.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			<-barrier // hold the read lock until everyone's in
			concurrent.Add(-1)
			l.RUnlock(p)
		}(i)
	}
	// Wait for all readers to be inside, then release them.
	for i := 0; peak.Load() < readers; i++ {
		time.Sleep(time.Millisecond)
		if i > 10000 {
			t.Fatal("readers never all entered concurrently")
		}
	}
	close(barrier)
	wg.Wait()
	if peak.Load() != readers {
		t.Fatalf("peak concurrent readers = %d, want %d", peak.Load(), readers)
	}
}

func TestRWWriterExcludesReaders(t *testing.T) {
	topo := numa.New(4, 16)
	l := locks.NewRWPerCluster(topo, newCBOMCS(topo))
	var data [2]int64 // writer keeps data[0]==data[1]; readers verify
	var torn atomic.Int32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.RLock(p)
				if data[0] != data[1] {
					torn.Add(1)
				}
				l.RUnlock(p)
			}
		}(i)
	}
	for i := 6; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.Lock(p)
				data[0]++
				// Window for readers to observe a torn pair if the
				// writer were not exclusive.
				for s := 0; s < 50; s++ {
					_ = s
				}
				data[1]++
				l.Unlock(p)
			}
		}(i)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("readers observed %d torn writes", torn.Load())
	}
	if data[0] != data[1] {
		t.Fatal("final state torn")
	}
}

func TestRWWriterNotStarvedByReaders(t *testing.T) {
	topo := numa.New(4, 16)
	l := locks.NewRWPerCluster(topo, newCBOMCS(topo))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Constant reader churn.
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.RLock(p)
				l.RUnlock(p)
			}
		}(i)
	}
	// The writer must get through promptly despite the churn.
	p := topo.Proc(7)
	done := make(chan struct{})
	go func() {
		for k := 0; k < 100; k++ {
			l.Lock(p)
			l.Unlock(p)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("writer starved by reader churn")
	}
	close(stop)
	wg.Wait()
	if l.ActiveReaders() != 0 {
		t.Fatalf("ActiveReaders = %d after drain", l.ActiveReaders())
	}
}

func TestRWUncontendedLatency(t *testing.T) {
	topo := numa.New(2, 4)
	l := locks.NewRWPerCluster(topo, newCBOMCS(topo))
	p := topo.Proc(0)
	for i := 0; i < 1000; i++ {
		l.RLock(p)
		l.RUnlock(p)
		l.Lock(p)
		l.Unlock(p)
	}
	if l.ActiveReaders() != 0 {
		t.Fatal("reader accounting leaked")
	}
}
