package locks_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
)

// introspected is what every combining executor reports about itself.
type introspected interface {
	locks.RWExecutor
	Ops() uint64
	Batches() uint64
	Occupancy(cluster int) int
	OccupancyEstimate() int
}

// combinerCase is one of the two constructors, seen through its
// exclusive face: the reader-writer constructor is handed the inner
// lock behind RWFromMutex, so Exec runs over exactly the lock the
// test holds or counts.
type combinerCase struct {
	name string
	new  func(topo *numa.Topology, inner locks.Mutex) introspected
}

var combiners = []combinerCase{
	{"comb-a", func(t *numa.Topology, m locks.Mutex) introspected { return locks.NewCombiningAdaptive(t, m) }},
	{"comb-a-rw", func(t *numa.Topology, m locks.Mutex) introspected {
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
	eachCombiner(t, checkExecOver(func(topo *numa.Topology) locks.Mutex { return core.NewCBOMCS(topo) }, 12, 200))
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
// exclusive lock is exclusive — a consumer that asks SharesExecReads
// keeps its exclusive read path.
func TestCombinesIntrospection(t *testing.T) {
	topo := numa.New(2, 4)
	if locks.SharesExecReads(locks.ExecFromMutex(locks.NewMCS(topo))) {
		t.Error("ExecFromMutex adapter claims shared reads")
	}
	eachCombiner(t, func(t *testing.T, c combinerCase) {
		if locks.SharesExecReads(c.new(topo, locks.NewMCS(topo))) {
			t.Error("combining executor over an exclusive lock claims shared reads")
		}
	})
}

// checkSingleProc is the idle end of the load curve: a lone caller
// must act at once and pay exactly one acquisition per closure — no
// patience spin, no second bracket — observable as Batches() == Ops()
// == acquisitions of the inner lock, with the caller's own request the
// only one the occupancy estimate ever sees. pick names the caller of
// each op; the calls never overlap.
func checkSingleProc(pick func(topo *numa.Topology, op int) *numa.Proc) func(*testing.T, combinerCase) {
	return func(t *testing.T, c combinerCase) {
		topo := numa.New(2, 4)
		var acquisitions atomic.Uint64
		x := c.new(topo, locks.CountAcquisitions(locks.NewMCS(topo), &acquisitions))
		const iters = 100
		n := 0
		for i := 0; i < iters; i++ {
			p := pick(topo, i)
			inside := 0
			x.Exec(p, func() { n++; inside = x.Occupancy(p.Cluster()) })
			if after := x.OccupancyEstimate(); inside != 1 || after != 0 {
				t.Fatalf("op %d: occupancy %d inside the closure and %d after, want 1 and 0", i, inside, after)
			}
		}
		if n != iters {
			t.Fatalf("ran %d closures, want %d", n, iters)
		}
		if ops, batches, acq := x.Ops(), x.Batches(), acquisitions.Load(); ops != iters || batches != iters || acq != iters {
			t.Fatalf("idle executor: %d ops over %d batches and %d acquisitions, want %d of each (batch of one)", ops, batches, acq, iters)
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
		ops, batches := x.Ops(), x.Batches()
		if ops != procs*iters {
			t.Fatalf("Ops() = %d, want %d", ops, procs*iters)
		}
		if batches != acquisitions.Load() {
			t.Fatalf("Batches() = %d but inner lock saw %d acquisitions", batches, acquisitions.Load())
		}
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
		if ops := x.Ops(); ops != workers {
			t.Fatalf("Ops() = %d, want %d", ops, workers)
		}
		if b, acq := x.Batches(), acquisitions.Load(); b != acq {
			t.Fatalf("Batches() = %d but inner lock saw %d acquisitions", b, acq)
		}
		// The pile drains in far fewer acquisitions than ops; typically
		// one, but a straggler that published after the combiner's last
		// harvest pass legitimately elects itself.
		if b := x.Batches(); b >= workers/2 {
			t.Fatalf("no amortization: %d acquisitions for %d piled-up ops", b, workers)
		}
	}
}

func TestAdaptiveBatchesPileUp(t *testing.T) { eachCombiner(t, checkPileUp(0)) }

// TestCombiningBatchesPileUp piles the posters up on cluster 1.
func TestCombiningBatchesPileUp(t *testing.T) { eachCombiner(t, checkPileUp(1)) }

func TestAdaptiveOccupancyIntrospection(t *testing.T) {
	topo := numa.New(2, 16)
	if _, ok := locks.EstimateOccupancy(locks.ExecFromMutex(locks.NewMCS(topo))); ok {
		t.Fatal("ExecFromMutex adapter claims an occupancy estimate")
	}
	eachCombiner(t, func(t *testing.T, c combinerCase) {
		inner := locks.NewMCS(topo)
		x := c.new(topo, inner)
		if occ, ok := locks.EstimateOccupancy(x); !ok || occ != 0 {
			t.Fatalf("EstimateOccupancy = (%d,%v), want (0,true)", occ, ok)
		}

		// Pile up posters behind a held inner lock: the estimate must
		// see them, cluster by cluster.
		holder := topo.Proc(15)
		inner.Lock(holder)
		const workers = 6
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p := topo.Proc(2 * w) // all on cluster 0
				x.Exec(p, func() {})
			}(i)
		}
		deadline := time.Now().Add(30 * time.Second)
		for x.Occupancy(0) < workers {
			if time.Now().After(deadline) {
				inner.Unlock(holder)
				t.Fatalf("occupancy estimate stuck at %d, want %d", x.Occupancy(0), workers)
			}
			runtime.Gosched()
		}
		if got := x.Occupancy(1); got != 0 {
			t.Errorf("cluster 1 occupancy = %d, want 0 (no cluster-1 posters)", got)
		}
		inner.Unlock(holder)
		wg.Wait()
		if occ := x.OccupancyEstimate(); occ != 0 {
			t.Fatalf("post-drain occupancy estimate = %d, want 0", occ)
		}
	})
}

func TestRWCombiningAdaptiveOverRWPerCluster(t *testing.T) {
	rwCombiner(t, func(t *testing.T) {
		topo := numa.New(2, 16)
		locktest.Check(t, topo, locks.NewRWCombiningAdaptive(topo, rwPerCluster(topo)), 8, 4, 200)
	})
}

// TestRWCombiningOverRWPerCluster runs the harness on four clusters:
// four reader cohorts must coexist in shared mode, and each cluster's
// shared combiner harvests only its own readers.
func TestRWCombiningOverRWPerCluster(t *testing.T) {
	rwCombiner(t, func(t *testing.T) {
		topo := numa.New(4, 16)
		locktest.Check(t, topo, locks.NewRWCombiningAdaptive(topo, rwPerCluster(topo)), 12, 4, 200)
	})
}

func TestRWCombiningOverExclusiveAdapter(t *testing.T) {
	// Over an RWFromMutex-adapted exclusive lock the harvested "shared"
	// batches serialize; the construction must still be a correct
	// RWExecutor (the harness skips the coexistence phase) and must
	// pass the adapter's non-sharing property through.
	rwCombiner(t, func(t *testing.T) {
		topo := numa.New(2, 16)
		x := locks.NewRWCombiningAdaptive(topo, locks.RWFromMutex(locks.NewMCS(topo)))
		if locks.SharesExecReads(x) {
			t.Fatal("RWCombining over RWFromMutex claims shared reads")
		}
		locktest.Check(t, topo, x, 8, 4, 200)
	})
}

func TestRWCombiningIntrospection(t *testing.T) {
	topo := numa.New(2, 4)
	rwCombiner(t, func(t *testing.T) {
		if x := locks.NewRWCombiningAdaptive(topo, rwPerCluster(topo)); !locks.SharesExecReads(x) {
			t.Error("RWCombining over a genuine RW lock drops an introspection property")
		}
	})
}

func TestRWCombiningSingleProcBypass(t *testing.T) {
	// The uncontended fast path: with no same-cluster peer in flight,
	// every shared closure takes the single-closure bypass — exactly
	// one RLock per op, so the two shared counters stay in lockstep and
	// the exclusive side never fires.
	rwCombiner(t, func(t *testing.T) {
		topo := numa.New(2, 4)
		var excl, shared atomic.Uint64
		x := locks.NewRWCombiningAdaptive(topo, locks.CountRWAcquisitions(rwPerCluster(topo), &excl, &shared))
		p := topo.Proc(0)
		n := 0
		for i := 0; i < 100; i++ {
			x.ExecShared(p, func() { n++ })
		}
		if n != 100 {
			t.Fatalf("ran %d closures, want 100", n)
		}
		if ops, b := x.SharedOps(), x.SharedBatches(); ops != 100 || b != 100 {
			t.Fatalf("SharedOps() = %d, SharedBatches() = %d, want 100 and 100 (bypass every op)", ops, b)
		}
		if got := shared.Load(); got != 100 {
			t.Fatalf("inner lock saw %d RLock acquisitions, want 100", got)
		}
		if got := excl.Load(); got != 0 {
			t.Fatalf("inner lock saw %d exclusive acquisitions, want 0", got)
		}
	})
}

func TestRWCombiningExclusiveSideIndependent(t *testing.T) {
	// One construction serves both modes: exclusive closures go through
	// the exclusive core and advance Ops/Batches only, shared closures
	// advance SharedOps/SharedBatches only.
	rwCombiner(t, func(t *testing.T) {
		topo := numa.New(2, 4)
		x := locks.NewRWCombiningAdaptive(topo, rwPerCluster(topo))
		p := topo.Proc(0)
		n := 0
		for i := 0; i < 50; i++ {
			x.Exec(p, func() { n++ })
			x.ExecShared(p, func() { n++ })
		}
		if n != 100 {
			t.Fatalf("ran %d closures, want 100", n)
		}
		if ops := x.Ops(); ops != 50 {
			t.Fatalf("Ops() = %d, want 50 (exclusive closures only)", ops)
		}
		if ops := x.SharedOps(); ops != 50 {
			t.Fatalf("SharedOps() = %d, want 50 (shared closures only)", ops)
		}
	})
}

// checkSharedPileUp is the read-side pileUp: the inner lock is held
// exclusively, so the first shared poster bypasses into a blocked
// RLock and one elected reader-combiner blocks inside its single
// shared acquisition while every other same-cluster poster publishes.
// Releasing the writer must drain the whole pile in far fewer shared
// acquisitions than ops.
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
		if sb := shared.Load(); sb >= workers/2 {
			t.Fatalf("no read-side amortization: %d shared acquisitions for %d piled-up read ops", sb, workers)
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

func TestRWCombiningAdaptiveOccupancyCountsReads(t *testing.T) {
	// The occupancy estimate must include in-flight shared requests: a
	// closure that reads the estimate from
	// inside the executor sees at least itself.
	rwCombiner(t, func(t *testing.T) {
		topo := numa.New(2, 4)
		x := locks.NewRWCombiningAdaptive(topo, rwPerCluster(topo))
		p := topo.Proc(0)
		seen := 0
		x.ExecShared(p, func() { seen = x.OccupancyEstimate() })
		if seen < 1 {
			t.Fatalf("OccupancyEstimate() = %d from inside a shared closure, want >= 1", seen)
		}
		if got := x.OccupancyEstimate(); got != 0 {
			t.Fatalf("OccupancyEstimate() = %d after drain, want 0", got)
		}
		if got := x.Occupancy(0); got != 0 {
			t.Fatalf("Occupancy(0) = %d after drain, want 0", got)
		}
	})
}
