package locks_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/closedloop"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

// trialWindow keeps each benchmark iteration short; throughput metrics
// stabilize well below this on the micro harnesses.
const trialWindow = 50 * time.Millisecond

// contendedThreads is the high-contention point: all processors but
// one (the paper's curves separate at full machine load; beyond
// GOMAXPROCS the Go scheduler, not the lock, dominates).
func contendedThreads() int {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 4 {
		n = 4
	}
	return n
}

// execTrialOpsPerSec runs one closed-loop window against a set of
// independent executors: threads workers each loop posting a small
// critical section (bump the executor's own counter pair) through
// Exec, visiting the executors round-robin.
func execTrialOpsPerSec(topo *numa.Topology, xs []locks.Executor, threads int) float64 {
	counts := make([]struct {
		n uint64
		_ numa.Pad
	}, threads)
	pairs := make([]struct{ a, b int64 }, len(xs)) // each protected by its executor's exclusion
	closedloop.Run(topo, threads, trialWindow, func(p *numa.Proc) func() bool {
		c := &counts[p.ID()]
		return func() bool {
			k := int(c.n % uint64(len(xs)))
			xs[k].Exec(p, func() { pairs[k].a++; pairs[k].b++ })
			c.n++
			return true
		}
	})
	for _, pr := range pairs {
		if pr.a != pr.b {
			panic("executor exclusion violated in benchmark")
		}
	}
	var ops uint64
	for _, c := range counts {
		ops += c.n
	}
	return float64(ops) / trialWindow.Seconds()
}

// BenchmarkCombining races each headline lock's combining executor
// (comb-a) against the same lock driven one-acquisition-per-op
// (ExecFromMutex), at the high-contention point: the
// delegated-execution analogue of Figure 2. Every variant's underlying
// lock carries an acquisition counter, so alongside throughput each
// sub-benchmark reports measured ops-per-acquisition — the
// amortization combining buys (direct is definitionally 1.0).
//
// The procs=2/cross rows are the other end: two procs, one per
// cluster, over eight independent executors picked round-robin — the
// shape of a sharded store's write path at two workers, where there is
// nothing cluster-local to combine and what a combining executor adds
// over direct is its fixed cost. As with BenchmarkUncontended's exec
// rows (internal/registry), state -cpu: numa.New sets the spin
// discipline from GOMAXPROCS.
func BenchmarkCombining(b *testing.B) {
	threads := contendedThreads()
	for _, name := range []string{"mcs", "c-bo-mcs", "cna"} {
		for _, variant := range []string{"direct", "comb-a"} {
			b.Run(name+"/"+variant, func(b *testing.B) {
				topo := numa.New(4, threads)
				benchExecutors(b, topo, name, variant, 1, threads)
			})
		}
	}
	for _, variant := range []string{"direct", "comb-a"} {
		b.Run("procs=2/cross/c-bo-mcs/"+variant, func(b *testing.B) {
			benchExecutors(b, numa.New(2, 4), "c-bo-mcs", variant, 8, 2)
		})
	}
}

// benchExecutors runs one trial per iteration of threads workers
// (procs 0..threads-1) over count executors of the given variant, each
// over its own counted instance of the named lock, and reports ops/s
// and ops per acquisition.
func benchExecutors(b *testing.B, topo *numa.Topology, lock, variant string, count, threads int) {
	e := registry.MustLookup(lock)
	var sum, amort float64
	for i := 0; i < b.N; i++ {
		var acq atomic.Uint64
		xs := make([]locks.Executor, count)
		for k := range xs {
			inner := locks.CountAcquisitions(e.NewMutex(topo), &acq)
			if variant == "comb-a" {
				xs[k] = locks.NewCombiningAdaptive(topo, inner)
			} else {
				xs[k] = locks.ExecFromMutex(inner)
			}
		}
		rate := execTrialOpsPerSec(topo, xs, threads)
		sum += rate
		if n := acq.Load(); n > 0 {
			amort += rate * trialWindow.Seconds() / float64(n)
		}
	}
	b.ReportMetric(sum/float64(b.N), "ops/s")
	b.ReportMetric(amort/float64(b.N), "ops/acq")
}
