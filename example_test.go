package cohort_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	cohort "repro"
)

// The basic pattern: build the lock by its name, one Proc per worker
// goroutine, lock operations carry the Proc.
func ExampleFind() {
	topo := cohort.NewTopology(4, 8) // 4 clusters, up to 8 workers
	e, err := cohort.Find("c-bo-mcs")
	if err != nil {
		fmt.Println(err)
		return
	}
	lock := e.NewMutex(topo)

	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(p *cohort.Proc) {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				lock.Lock(p)
				counter++
				lock.Unlock(p)
			}
		}(topo.Proc(i))
	}
	wg.Wait()
	fmt.Println(counter)
	// Output: 8000
}

// Abortable cohort locks give up after a patience budget, so workers
// can fall back to other work instead of waiting.
func ExampleFind_abortable() {
	topo := cohort.NewTopology(2, 4)
	e, err := cohort.Find("a-c-bo-clh")
	if err != nil {
		fmt.Println(err)
		return
	}
	lock := e.NewTry(topo)

	p0, p1 := topo.Proc(0), topo.Proc(1)
	if !lock.TryLockFor(p0, time.Second) {
		fmt.Println("unexpected: free lock not acquired")
		return
	}
	// A second thread with tiny patience aborts instead of blocking.
	if !lock.TryLockFor(p1, 10*time.Microsecond) {
		fmt.Println("second acquisition aborted")
	}
	lock.Unlock(p0)
	if lock.TryLockFor(p1, time.Second) {
		fmt.Println("acquired after release")
		lock.Unlock(p1)
	}
	// Output:
	// second acquisition aborted
	// acquired after release
}

// The transformation composes user-supplied locks, here the
// test-and-set global and spin-lock local below, under a hand-off
// limit.
func ExampleNew() {
	topo := cohort.NewTopology(2, 4)
	lock := cohort.New(topo, &tasGlobal{}, func(cluster int) cohort.LocalLock {
		return &userSpinLock{}
	}, cohort.WithHandoffLimit(16))

	p := topo.Proc(0)
	lock.Lock(p)
	fmt.Println("held with hand-off limit", lock.HandoffLimit())
	lock.Unlock(p)
	// Output: held with hand-off limit 16
}

// tasGlobal is a user-written test-and-set lock. Any lock can be a
// cohort's global lock: the cohort may release it from another thread
// of the acquiring cluster, but always with the acquirer's Proc.
type tasGlobal struct{ held atomic.Int32 }

func (g *tasGlobal) Lock(*cohort.Proc) {
	for !g.held.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

func (g *tasGlobal) Unlock(*cohort.Proc) { g.held.Store(0) }

// Both halves user-written: the test-and-set global above, and as the
// per-cluster lock userSpinLock, a spin lock whose successor flag
// answers the cohort-detection probe (Alone).
func ExampleNew_userLocks() {
	topo := cohort.NewTopology(2, 8)
	lock := cohort.New(topo, &tasGlobal{}, func(cluster int) cohort.LocalLock {
		return &userSpinLock{}
	})

	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(p *cohort.Proc) {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				lock.Lock(p)
				counter++
				lock.Unlock(p)
			}
		}(topo.Proc(i))
	}
	wg.Wait()
	fmt.Println(counter)
	// Output: 8000
}

// Reader-writer cohorting: readers stay cluster-local, writers go
// through a cohort lock.
func ExampleNewRWCBOMCS() {
	topo := cohort.NewTopology(2, 4)
	rw := cohort.NewRWCBOMCS(topo)

	data := 0
	var wg sync.WaitGroup
	// One writer.
	wg.Add(1)
	go func(p *cohort.Proc) {
		defer wg.Done()
		rw.Lock(p)
		data = 42
		rw.Unlock(p)
	}(topo.Proc(0))
	wg.Wait()

	// Concurrent readers.
	results := make(chan int, 3)
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(p *cohort.Proc) {
			defer wg.Done()
			rw.RLock(p)
			results <- data
			rw.RUnlock(p)
		}(topo.Proc(i))
	}
	wg.Wait()
	close(results)
	sum := 0
	for v := range results {
		sum += v
	}
	fmt.Println(sum)
	// Output: 126
}
