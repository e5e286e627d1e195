package locks_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
	"repro/internal/registry"
)

// combinerCase is one of the two constructors, seen through its
// exclusive face: the reader-writer constructor is handed the inner
// lock behind RWFromMutex, so Exec runs over exactly the lock the
// test holds or counts.
type combinerCase struct {
	name string
	new  func(topo *numa.Topology, inner locks.Mutex) locks.RWExecutor
}

var combiners = []combinerCase{
	{"comb-a", func(t *numa.Topology, m locks.Mutex) locks.RWExecutor { return locks.NewCombiningAdaptive(t, m) }},
	{"comb-a-rw", func(t *numa.Topology, m locks.Mutex) locks.RWExecutor {
		return locks.NewRWCombiningAdaptive(t, locks.RWFromMutex(m))
	}},
}

func eachCombiner(t *testing.T, body func(t *testing.T, c combinerCase)) {
	for _, c := range combiners {
		t.Run(c.name, func(t *testing.T) { body(t, c) })
	}
}

// rwCombiner runs body as a subtest named after the reader-writer
// constructor's registry prefix.
func rwCombiner(t *testing.T, body func(t *testing.T)) {
	t.Run("comb-a-rw", body)
}

func rwPerCluster(topo *numa.Topology) locks.RWMutex {
	return locks.NewRWPerCluster(topo, locks.NewMCS(topo))
}

// checkExecOver runs the executor harness over the inner lock build
// returns.
func checkExecOver(build func(*numa.Topology) locks.Mutex, procs, iters int) func(*testing.T, combinerCase) {
	return func(t *testing.T, c combinerCase) {
		topo := testTopo()
		locktest.Check(t, topo, c.new(topo, build(topo)), 0, procs, iters)
	}
}

func newMCS(topo *numa.Topology) locks.Mutex { return locks.NewMCS(topo) }

// newFCMCS is a lock that itself batches hand-offs by cluster: the two
// batching layers must compose without losing wakeups.
func newFCMCS(topo *numa.Topology) locks.Mutex { return locks.NewFCMCS(topo) }

func TestAdaptiveOverMCS(t *testing.T) {
	eachCombiner(t, checkExecOver(newMCS, 16, 300))
}

// TestCombiningOverMCS runs the same posters on two clusters instead
// of four, so every batch a combiner harvests is twice as deep.
func TestCombiningOverMCS(t *testing.T) {
	eachCombiner(t, func(t *testing.T, c combinerCase) {
		topo := numa.New(2, 16)
		locktest.Check(t, topo, c.new(topo, locks.NewMCS(topo)), 0, 16, 300)
	})
}

func TestCombiningOverFCMCS(t *testing.T) {
	eachCombiner(t, checkExecOver(newFCMCS, 12, 200))
}

// TestAdaptiveOverCohort runs the executor over the paper's C-BO-MCS
// cohort lock: the combiner's batch is one cohort acquisition, and
// local hand-offs inside the cohort must not lose a poster.
func TestAdaptiveOverCohort(t *testing.T) {
	eachCombiner(t, checkExecOver(registry.MustLookup("c-bo-mcs").NewMutex, 12, 200))
}

func TestCombiningOverPthread(t *testing.T) {
	eachCombiner(t, checkExecOver(func(*numa.Topology) locks.Mutex { return locks.NewPthread() }, 16, 300))
}

func TestExecFromMutex(t *testing.T) {
	topo := numa.New(2, 8)
	x := locks.ExecFromMutex(locks.NewMCS(topo))
	locktest.Check(t, topo, x, 0, 8, 300)
}

// TestCombinesIntrospection: every combining executor, and the
// ExecFromMutex adapter, is an RWExecutor whose shared face over an
// exclusive lock is exclusive — each ExecShared runs its closure once
// under one acquisition of the mutex, as the counter underneath sees.
func TestCombinesIntrospection(t *testing.T) {
	topo := numa.New(2, 4)
	shareOnce := func(t *testing.T, build func(locks.Mutex) locks.RWExecutor) {
		var acquisitions atomic.Uint64
		x := build(locks.CountAcquisitions(locks.NewMCS(topo), &acquisitions))
		const iters = 20
		n := 0
		for i := 0; i < iters; i++ {
			x.ExecShared(topo.Proc(i%4), func() { n++ })
		}
		if n != iters || acquisitions.Load() != iters {
			t.Errorf("%d shared closures ran %d times under %d acquisitions, want one each", iters, n, acquisitions.Load())
		}
	}
	shareOnce(t, locks.ExecFromMutex)
	eachCombiner(t, func(t *testing.T, c combinerCase) {
		shareOnce(t, func(m locks.Mutex) locks.RWExecutor { return c.new(topo, m) })
	})
}

// checkSingleProc is the idle end of the load curve: a lone caller
// must act at once and pay exactly one acquisition per closure — no
// patience spin, no second bracket — observable as one acquisition of
// the inner lock per closure run. pick names the caller of each op;
// the calls never overlap.
func checkSingleProc(pick func(topo *numa.Topology, op int) *numa.Proc) func(*testing.T, combinerCase) {
	return func(t *testing.T, c combinerCase) {
		topo := numa.New(2, 4)
		var acquisitions atomic.Uint64
		x := c.new(topo, locks.CountAcquisitions(locks.NewMCS(topo), &acquisitions))
		const iters = 100
		n := 0
		for i := 0; i < iters; i++ {
			x.Exec(pick(topo, i), func() { n++ })
		}
		if acq := acquisitions.Load(); n != iters || acq != iters {
			t.Fatalf("idle executor: %d closures over %d acquisitions, want %d of each (batch of one)", n, acq, iters)
		}
	}
}

func TestAdaptiveSingleProcEagerPath(t *testing.T) {
	eachCombiner(t, checkSingleProc(func(topo *numa.Topology, _ int) *numa.Proc { return topo.Proc(0) }))
}

// TestCombiningSingleProc hands each op to the next proc in turn, on
// alternating clusters: idleness, not the caller's identity, is what
// keeps every op a batch of one.
func TestCombiningSingleProc(t *testing.T) {
	eachCombiner(t, checkSingleProc(func(topo *numa.Topology, op int) *numa.Proc { return topo.Proc(op % topo.MaxProcs()) }))
}

func TestCombiningAmortizesAcquisitions(t *testing.T) {
	// The construction's whole point: under contention, closures must
	// outnumber underlying-lock acquisitions. Count acquisitions with a
	// wrapper and drive enough concurrent posters that batches form.
	eachCombiner(t, func(t *testing.T, c combinerCase) {
		topo := numa.New(2, 16)
		var acquisitions atomic.Uint64
		x := c.new(topo, locks.CountAcquisitions(locks.NewMCS(topo), &acquisitions))

		const procs, iters = 16, 400
		var wg sync.WaitGroup
		var total [procs]int
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				p := topo.Proc(id)
				for k := 0; k < iters; k++ {
					x.Exec(p, func() { total[id]++ })
				}
			}(i)
		}
		wg.Wait()
		for id := range total {
			if total[id] != iters {
				t.Fatalf("proc %d ran %d closures, want %d", id, total[id], iters)
			}
		}
		ops, batches := uint64(procs*iters), acquisitions.Load()
		if batches > ops {
			t.Fatalf("more acquisitions (%d) than ops (%d)", batches, ops)
		}
		// Batch formation needs genuine parallelism (a single-CPU run
		// serializes posters, so every op is its own batch); the
		// guaranteed amortization property is asserted by checkPileUp.
		t.Logf("amortization: %d ops over %d acquisitions (%.1f ops/acq)",
			ops, batches, float64(ops)/float64(batches))
	})
}

// pileUp holds the lock an executor runs over (hold/release, from
// outside the executor, on a proc of the next cluster), starts workers
// posters on cluster through post, lets them all publish — the first
// to elect itself blocks inside its one acquisition, the rest spin on
// their slots — and releases. It reports how often each worker's
// closure ran.
func pileUp(topo *numa.Topology, cluster, workers int, hold, release func(*numa.Proc), post func(p *numa.Proc, fn func())) []int {
	holder := topo.Proc((cluster + 1) % topo.Clusters())
	hold(holder)
	ran := make([]int, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := topo.Proc(topo.Clusters()*w + cluster)
			post(p, func() { ran[w]++ })
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	release(holder)
	wg.Wait()
	return ran
}

// checkPileUp is deterministic amortization, independent of CPU count:
// releasing the held lock must let a single acquisition execute the
// whole pile, whichever cluster it forms on.
func checkPileUp(cluster int) func(*testing.T, combinerCase) {
	return func(t *testing.T, c combinerCase) {
		topo := numa.New(2, 16)
		inner := locks.NewMCS(topo)
		var acquisitions atomic.Uint64 // the executor's, not the holder's
		x := c.new(topo, locks.CountAcquisitions(inner, &acquisitions))
		const workers = 8
		for w, n := range pileUp(topo, cluster, workers, inner.Lock, inner.Unlock, x.Exec) {
			if n != 1 {
				t.Fatalf("worker %d ran %d times, want 1", w, n)
			}
		}
		// The pile drains in far fewer acquisitions than ops; typically
		// one, but a straggler that published after the combiner's last
		// harvest pass legitimately elects itself.
		if b := acquisitions.Load(); b >= workers/2 {
			t.Fatalf("no amortization: %d acquisitions for %d piled-up ops", b, workers)
		}
	}
}

func TestAdaptiveBatchesPileUp(t *testing.T) { eachCombiner(t, checkPileUp(0)) }

// TestCombiningBatchesPileUp piles the posters up on cluster 1.
func TestCombiningBatchesPileUp(t *testing.T) { eachCombiner(t, checkPileUp(1)) }

func TestRWCombiningAdaptiveOverRWPerCluster(t *testing.T) {
	rwCombiner(t, func(t *testing.T) {
		topo := numa.New(2, 16)
		x := locks.NewRWCombiningAdaptive(topo, rwPerCluster(topo))
		locktest.Coexist(t, topo, x, 8)
		locktest.Check(t, topo, x, 8, 4, 200)
	})
}

// TestRWCombiningOverRWPerCluster runs the harness on four clusters:
// four reader cohorts must coexist in shared mode.
func TestRWCombiningOverRWPerCluster(t *testing.T) {
	rwCombiner(t, func(t *testing.T) {
		topo := numa.New(4, 16)
		x := locks.NewRWCombiningAdaptive(topo, rwPerCluster(topo))
		locktest.Coexist(t, topo, x, 12)
		locktest.Check(t, topo, x, 12, 4, 200)
	})
}

func TestRWCombiningOverExclusiveAdapter(t *testing.T) {
	// Over an RWFromMutex-adapted exclusive lock a "shared" closure takes
	// the mutex itself, outside the combiner: reads serialize with one
	// another and must still exclude the combiner's batches.
	rwCombiner(t, func(t *testing.T) {
		topo := numa.New(2, 16)
		x := locks.NewRWCombiningAdaptive(topo, locks.RWFromMutex(locks.NewMCS(topo)))
		locktest.Check(t, topo, x, 8, 4, 200)
	})
}

func TestRWCombiningExclusiveSideIndependent(t *testing.T) {
	// One construction serves both modes: exclusive closures go through
	// the combiner's exclusive bracket, shared closures bypass it for
	// one shared acquisition each.
	rwCombiner(t, func(t *testing.T) {
		topo := numa.New(2, 4)
		var excl, shared atomic.Uint64
		x := locks.NewRWCombiningAdaptive(topo, locks.CountRWAcquisitions(rwPerCluster(topo), &excl, &shared))
		p := topo.Proc(0)
		n := 0
		for i := 0; i < 50; i++ {
			x.Exec(p, func() { n++ })
			x.ExecShared(p, func() { n++ })
		}
		if n != 100 {
			t.Fatalf("ran %d closures, want 100", n)
		}
		if e, sh := excl.Load(), shared.Load(); e != 50 || sh != 50 {
			t.Fatalf("%d exclusive and %d shared acquisitions, want 50 and 50", e, sh)
		}
	})
}

// checkSharedPileUp is pileUp's inverse on the read side: the inner
// lock is held exclusively while same-cluster readers pile up, and
// releasing it must drain the pile in exactly one shared acquisition
// per closure — each reader takes the lock's shared mode itself, no
// combiner folds reads — and in no exclusive acquisition.
func checkSharedPileUp(cluster int) func(*testing.T) {
	return func(t *testing.T) {
		topo := numa.New(2, 16)
		inner := rwPerCluster(topo)
		var excl, shared atomic.Uint64
		x := locks.NewRWCombiningAdaptive(topo, locks.CountRWAcquisitions(inner, &excl, &shared))
		const workers = 8
		for w, n := range pileUp(topo, cluster, workers, inner.Lock, inner.Unlock, x.ExecShared) {
			if n != 1 {
				t.Fatalf("worker %d ran %d times, want 1", w, n)
			}
		}
		if sb := shared.Load(); sb != workers {
			t.Fatalf("read pile-up took %d shared acquisitions for %d read ops, want one each", sb, workers)
		}
		if e := excl.Load(); e != 0 {
			t.Fatalf("read pile-up took %d exclusive acquisitions, want 0", e)
		}
	}
}

func TestRWCombiningAdaptiveSharedBatchesPileUp(t *testing.T) {
	rwCombiner(t, checkSharedPileUp(0))
}

// TestRWCombiningSharedBatchesPileUp piles the readers up on cluster 1.
func TestRWCombiningSharedBatchesPileUp(t *testing.T) {
	rwCombiner(t, checkSharedPileUp(1))
}
