// Package closedloop is the one measurement method behind the paper's
// in-process exhibits — LBench (Figures 2-6), the memcached load
// (Table 1) and mmicro (Table 2): N identical workers, one per proc,
// each repeating its own step back to back for one fixed window. The
// exhibits differ only in the step; the start gate, the window, the
// collector and the spin discipline are set here once.
package closedloop

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/numa"
	"repro/internal/spin"
)

// Check validates the fields every closed-loop configuration shares:
// a topology, a worker count it can place, and a positive window.
func Check(topo *numa.Topology, threads int, d time.Duration) error {
	if topo == nil {
		return fmt.Errorf("nil topology")
	}
	if threads < 1 || threads > topo.MaxProcs() {
		return fmt.Errorf("%d threads outside [1,%d]", threads, topo.MaxProcs())
	}
	if d <= 0 {
		return fmt.Errorf("non-positive duration")
	}
	return nil
}

// Run measures one window of d. It collects the garbage the caller's
// setup left (see collect), calibrates the busy-wait and sets the spin
// discipline for threads workers, then builds each worker's step by
// calling newStep with procs 0..threads-1 — before the start gate, so
// per-worker buffers are allocated outside the window. Behind the gate
// every worker repeats its step until the window closes or the step
// returns false. Run returns the elapsed time from gate to the last
// worker's exit; the caller's arguments must satisfy Check.
func Run(topo *numa.Topology, threads int, d time.Duration, newStep func(p *numa.Proc) func() bool) time.Duration {
	collect()
	spin.Calibrate()
	spin.AutoOversubscribe(threads)
	steps := make([]func() bool, threads)
	for i := range steps {
		steps[i] = newStep(topo.Proc(i))
	}
	var stop atomic.Bool
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(threads)
	for _, step := range steps {
		go func(step func() bool) {
			defer wg.Done()
			<-start
			for !stop.Load() && step() {
			}
		}(step)
	}
	began := time.Now()
	close(start)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return time.Since(began)
}

// garbageFloor is the Go runtime's minimum heap goal at the default
// GOGC.
const garbageFloor = 4 << 20

// collect runs a full collection when the heap holds at least
// garbageFloor beyond what the last cycle found live, so the setup's
// garbage is not collected inside the window. Below that it does
// nothing: a forced collection is not free — after one, lbench's
// 16-proc cohort-lock samples fall into ping-ponging the global lock
// between two running goroutines several times as often — and so
// little garbage costs a window at most one short cycle.
func collect() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if objects, live := s[0].Value.Uint64(), s[1].Value.Uint64(); objects >= live+garbageFloor {
		runtime.GC()
	}
}
