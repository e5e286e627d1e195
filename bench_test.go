// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), one benchmark family per exhibit. Each sub-benchmark
// runs fixed-duration trials of the corresponding experiment and
// reports the exhibit's metric via ReportMetric; the cmd/ tools run the
// same experiments over the full parameter sweeps.
//
//	go test -bench=Figure2 .        # LBench throughput
//	go test -bench=Table2 .        # mmicro allocator
//	go test -bench=. .             # everything
package cohort_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/kvload"
	"repro/internal/kvstore"
	"repro/internal/lbench"
	"repro/internal/locks"
	"repro/internal/mmicro"
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

// benchLBench runs one LBench configuration per iteration and reports
// the chosen metric's mean.
func benchLBench(b *testing.B, lockName string, threads int,
	metric func(lbench.Result) float64, unit string) {
	b.Helper()
	e := registry.MustLookup(lockName)
	topo := numa.New(4, threads)
	var sum float64
	for i := 0; i < b.N; i++ {
		cfg := lbench.DefaultConfig(topo, threads)
		cfg.Duration = trialWindow
		res, err := lbench.Run(cfg, e.NewMutex(topo))
		if err != nil {
			b.Fatal(err)
		}
		sum += metric(res)
	}
	b.ReportMetric(sum/float64(b.N), unit)
}

// BenchmarkFigure2Scalability reproduces Figure 2's high-contention
// point: LBench throughput per lock.
func BenchmarkFigure2Scalability(b *testing.B) {
	for _, name := range registry.Figure2Names() {
		b.Run(name, func(b *testing.B) {
			benchLBench(b, name, contendedThreads(), lbench.Result.Throughput, "pairs/s")
		})
	}
}

// BenchmarkFigure3Locality reproduces Figure 3: simulated L2 coherence
// misses per critical section (lower is better).
func BenchmarkFigure3Locality(b *testing.B) {
	for _, name := range registry.Figure2Names() {
		b.Run(name, func(b *testing.B) {
			benchLBench(b, name, contendedThreads(), lbench.Result.MissesPerCS, "misses/CS")
		})
	}
}

// BenchmarkFigure4LowContention reproduces Figure 4: throughput at a
// low thread count, where all locks should be competitive.
func BenchmarkFigure4LowContention(b *testing.B) {
	for _, name := range registry.Figure2Names() {
		b.Run(name, func(b *testing.B) {
			benchLBench(b, name, 2, lbench.Result.Throughput, "pairs/s")
		})
	}
}

// BenchmarkFigure5Fairness reproduces Figure 5: the standard deviation
// of per-thread throughput as a percentage of the mean.
func BenchmarkFigure5Fairness(b *testing.B) {
	// Cluster-even: each of the four clusters gets the same number of
	// threads, so the per-thread spread measures the lock, not an
	// uneven deal of threads to clusters.
	threads := contendedThreads() / 4 * 4
	if threads < 4 {
		threads = 4
	}
	for _, name := range registry.Figure2Names() {
		b.Run(name, func(b *testing.B) {
			benchLBench(b, name, threads, lbench.Result.FairnessStdDevPct, "stddev%")
		})
	}
}

// BenchmarkFigure6Abortable reproduces Figure 6: abortable lock
// throughput, with the abort rate as a companion metric.
func BenchmarkFigure6Abortable(b *testing.B) {
	for _, name := range registry.Figure6Names() {
		b.Run(name, func(b *testing.B) {
			e := registry.MustLookup(name)
			threads := contendedThreads()
			topo := numa.New(4, threads)
			var tp, ar float64
			for i := 0; i < b.N; i++ {
				cfg := lbench.DefaultConfig(topo, threads)
				cfg.Duration = trialWindow
				res, err := lbench.RunAbortable(cfg, e.NewTry(topo))
				if err != nil {
					b.Fatal(err)
				}
				tp += res.Throughput()
				ar += 100 * res.AbortRate()
			}
			b.ReportMetric(tp/float64(b.N), "pairs/s")
			b.ReportMetric(ar/float64(b.N), "abort%")
		})
	}
}

// benchTable1 runs one memcached-style cell per iteration.
func benchTable1(b *testing.B, reads float64) {
	threads := contendedThreads()
	for _, name := range registry.TableNames() {
		b.Run(name, func(b *testing.B) {
			e := registry.MustLookup(name)
			topo := numa.New(4, threads)
			const keyspace = 20_000
			var sum float64
			for i := 0; i < b.N; i++ {
				store := kvstore.New(kvstore.Config{Topo: topo, Locking: kvstore.FromMutex(func() locks.Mutex { return e.NewMutex(topo) })})
				kvload.Populate(store, topo.Proc(0), keyspace, 128)
				cfg := kvload.DefaultConfig(topo, threads, reads)
				cfg.Duration = trialWindow
				cfg.Keyspace = keyspace
				res, err := kvload.Run(cfg, store)
				if err != nil {
					b.Fatal(err)
				}
				sum += res.Throughput()
			}
			b.ReportMetric(sum/float64(b.N), "ops/s")
		})
	}
}

// BenchmarkTable1aReadHeavy reproduces Table 1(a): 90% gets.
func BenchmarkTable1aReadHeavy(b *testing.B) { benchTable1(b, 0.9) }

// BenchmarkTable1bMixed reproduces Table 1(b): 50% gets.
func BenchmarkTable1bMixed(b *testing.B) { benchTable1(b, 0.5) }

// BenchmarkTable1cWriteHeavy reproduces Table 1(c): 10% gets.
func BenchmarkTable1cWriteHeavy(b *testing.B) { benchTable1(b, 0.1) }

// BenchmarkShardScaling measures the sharded store beyond the paper:
// the 50% mix under C-BO-MCS with 1, 4 and 16 shards — the structural
// escape from Table 1's single-lock ceiling.
func BenchmarkShardScaling(b *testing.B) {
	threads := contendedThreads()
	e := registry.MustLookup("c-bo-mcs")
	const keyspace = 20_000
	for _, shards := range []int{1, 4, 16} {
		b.Run("shards-"+itoa(int64(shards)), func(b *testing.B) {
			topo := numa.New(4, threads)
			var sum float64
			for i := 0; i < b.N; i++ {
				store := kvstore.New(kvstore.Config{
					Topo:     topo,
					Locking:  kvstore.FromMutex(e.MutexFactory(topo)),
					Shards:   shards,
					Capacity: keyspace * 2,
				})
				kvload.Populate(store, topo.Proc(0), keyspace, 128)
				cfg := kvload.DefaultConfig(topo, threads, 0.5)
				cfg.Duration = trialWindow
				cfg.Keyspace = keyspace
				res, err := kvload.Run(cfg, store)
				if err != nil {
					b.Fatal(err)
				}
				sum += res.Throughput()
			}
			b.ReportMetric(sum/float64(b.N), "ops/s")
		})
	}
}

// BenchmarkCNA measures the compact NUMA-aware extension lock on
// LBench at the Figure 2 high-contention point and the Figure 4
// low-contention point, so its rows land beside the cohort locks'.
func BenchmarkCNA(b *testing.B) {
	b.Run("contended", func(b *testing.B) {
		benchLBench(b, "cna", contendedThreads(), lbench.Result.Throughput, "pairs/s")
	})
	b.Run("low", func(b *testing.B) {
		benchLBench(b, "cna", 2, lbench.Result.Throughput, "pairs/s")
	})
	b.Run("batch", func(b *testing.B) {
		benchLBench(b, "cna", contendedThreads(), lbench.Result.AvgBatch, "CS/batch")
	})
}

// BenchmarkGCR measures the concurrency-restriction wrapper at the
// high-contention point over each registered inner lock — the regime
// where admission control is supposed to pay for itself.
func BenchmarkGCR(b *testing.B) {
	for _, name := range []string{"gcr-mcs", "gcr-cna", "gcr-c-bo-mcs"} {
		b.Run(name, func(b *testing.B) {
			benchLBench(b, name, contendedThreads(), lbench.Result.Throughput, "pairs/s")
		})
	}
}

// execTrialOpsPerSec runs one fixed-window trial against a set of
// independent executors: threads workers each loop posting a small
// critical section (bump the executor's own counter pair) through
// Exec, visiting the executors round-robin.
func execTrialOpsPerSec(topo *numa.Topology, xs []locks.Executor, threads int) float64 {
	var ops atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	pairs := make([]struct{ a, b int64 }, len(xs)) // each protected by its executor's exclusion
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(p *numa.Proc) {
			defer wg.Done()
			n := uint64(0)
			for {
				select {
				case <-stop:
					ops.Add(n)
					return
				default:
				}
				k := int(n % uint64(len(xs)))
				xs[k].Exec(p, func() { pairs[k].a++; pairs[k].b++ })
				n++
			}
		}(topo.Proc(w))
	}
	time.Sleep(trialWindow)
	close(stop)
	wg.Wait()
	for _, pr := range pairs {
		if pr.a != pr.b {
			panic("executor exclusion violated in benchmark")
		}
	}
	return float64(ops.Load()) / trialWindow.Seconds()
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
// rows, state -cpu: numa.New sets the spin discipline from GOMAXPROCS.
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

// BenchmarkSharedBatchedReads measures shared-mode batched reads end
// to end across a 50/90/99% read sweep: a batched pipeline (16-key
// client batches) against a sharded store under the reader-writer
// cohort lock, with MGet chunks answered two ways — shared mode (one
// RLock per chunk) and the same construction driven through its
// exclusive path. Shared chunks coexist across clusters; exclusive
// chunks serialize.
func BenchmarkSharedBatchedReads(b *testing.B) {
	threads := contendedThreads()
	e := registry.MustLookup("rw-c-bo-mcs")
	const keyspace = 20_000
	for _, reads := range []float64{0.50, 0.90, 0.99} {
		for _, mode := range []string{"shared", "exclusive"} {
			mode := mode
			b.Run(fmt.Sprintf("reads%.0f/%s", reads*100, mode), func(b *testing.B) {
				topo := numa.New(4, threads)
				var sum float64
				for i := 0; i < b.N; i++ {
					cfg := kvstore.Config{
						Topo:     topo,
						Shards:   4,
						MaxBatch: 16,
						Capacity: keyspace * 2,
					}
					newRW := e.RWFactory(topo)
					if mode == "exclusive" {
						cfg.Locking = kvstore.FromRW(func() locks.RWMutex { return locks.RWFromMutex(newRW()) })
					} else {
						cfg.Locking = kvstore.FromRW(newRW)
					}
					store := kvstore.New(cfg)
					kvload.Populate(store, topo.Proc(0), keyspace, 128)
					lcfg := kvload.DefaultConfig(topo, threads, reads)
					lcfg.Duration = trialWindow
					lcfg.Keyspace = keyspace
					lcfg.BatchSize = 16
					res, err := kvload.Run(lcfg, store)
					if err != nil {
						b.Fatal(err)
					}
					sum += res.Throughput()
				}
				b.ReportMetric(sum/float64(b.N), "ops/s")
			})
		}
	}
}

// BenchmarkBatchedStore measures the batched operation pipeline end
// to end: the 50% mix through MGet/MSet batches vs the per-op loop,
// with the store's critical sections either directly locked or
// delegated to combining executors — the amortization exhibit across
// every layer of the refactor.
func BenchmarkBatchedStore(b *testing.B) {
	threads := contendedThreads()
	e := registry.MustLookup("c-bo-mcs")
	const keyspace = 20_000
	cases := []struct {
		name  string
		comb  bool
		batch int
	}{
		{"direct/batch1", false, 1},
		{"direct/batch16", false, 16},
		{"comb-a/batch1", true, 1},
		{"comb-a/batch16", true, 16},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			topo := numa.New(4, threads)
			var sum float64
			for i := 0; i < b.N; i++ {
				cfg := kvstore.Config{
					Topo:     topo,
					Shards:   4,
					MaxBatch: 16,
					Capacity: keyspace * 2,
				}
				if c.comb {
					cfg.Locking = kvstore.FromExec(func() locks.Executor {
						return locks.NewCombiningAdaptive(topo, e.NewMutex(topo))
					})
				} else {
					cfg.Locking = kvstore.FromMutex(e.MutexFactory(topo))
				}
				store := kvstore.New(cfg)
				kvload.Populate(store, topo.Proc(0), keyspace, 128)
				lcfg := kvload.DefaultConfig(topo, threads, 0.5)
				lcfg.Duration = trialWindow
				lcfg.Keyspace = keyspace
				lcfg.BatchSize = c.batch
				res, err := kvload.Run(lcfg, store)
				if err != nil {
					b.Fatal(err)
				}
				sum += res.Throughput()
			}
			b.ReportMetric(sum/float64(b.N), "ops/s")
		})
	}
	b.Run("coldindex/batch1", func(b *testing.B) { benchColdIndex(b, 1) })
	b.Run("coldindex/batch16", func(b *testing.B) { benchColdIndex(b, 16) })
}

// benchColdIndex is BenchmarkBatchedStore's cold-index case: one proc
// reads uniformly random keys out of 200 000 resident 128 B values on 8
// shards (about 45 MB of items, values and bucket words, far past a
// core's private caches), simulated charges at their minimum, so each lookup
// is the two dependent index misses — bucket word, then item line — and
// the value's. batch 1 issues single Gets: the misses queue one behind
// the other under the shard lock. batch 16 issues MGets: Store.route's
// warm pass loads every key's bucket head and head-item key word before
// the first shard lock is taken, so the sixteen chains overlap. The
// ns/key gap between the two cases is that overlap plus the saved
// acquisitions (`go test -bench BatchedStore/coldindex`).
//
// The warm pass discards what it loads, so it only works if the loads
// survive compilation. They do: sync/atomic loads are intrinsics with a
// memory effect, which dead-code elimination keeps. `go tool objdump -s
// 'kvstore.\(\*Store\).route$'` on a go1.24 amd64 test binary shows
// warmBucket and warmItem inlined into route as plain MOVs: `MOVQ
// 0(DX), DX` (bucket head, type.go:54) in the first loop, then `MOVQ
// 0(R9), R9`, `TESTQ R9, R9`, `MOVQ 0(R9), R9` (head again, then its
// key, type.go:169) in the second.
func benchColdIndex(b *testing.B, batch int) {
	const (
		resident = 200_000
		valueLen = 128
	)
	topo := numa.New(2, 2)
	store := kvstore.New(kvstore.Config{
		Topo:        topo,
		Locking:     kvstore.FromMutex(registry.MustLookup("pthread").MutexFactory(topo)),
		Shards:      8,
		MaxBatch:    16,
		Buckets:     2 * resident,
		Capacity:    2 * resident,
		Cache:       cachesim.Config{LocalNs: 0, RemoteNs: 1},
		ItemLocalNs: 0, ItemRemoteNs: 1,
	})
	p := topo.Proc(0)
	val := make([]byte, valueLen)
	for k := uint64(0); k < resident; k++ {
		store.Set(p, k, val)
	}
	keys := make([]uint64, batch)
	dsts := make([][]byte, batch)
	for i := range dsts {
		dsts[i] = make([]byte, valueLen)
	}
	lens := make([]int, batch)
	found := make([]bool, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = uint64(p.RandN(resident))
		}
		if batch == 1 {
			store.Get(p, keys[0], dsts[0])
		} else {
			store.MGet(p, keys, dsts, lens, found)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/key")
}

// BenchmarkTable2Malloc reproduces Table 2: mmicro malloc-free pairs
// per millisecond, with the cross-cluster block-reuse rate (the
// paper's explanatory mechanism) as a companion metric.
func BenchmarkTable2Malloc(b *testing.B) {
	threads := contendedThreads()
	for _, name := range registry.TableNames() {
		b.Run(name, func(b *testing.B) {
			e := registry.MustLookup(name)
			topo := numa.New(4, threads)
			var rate, reuse float64
			for i := 0; i < b.N; i++ {
				cfg := mmicro.DefaultConfig(topo, threads)
				cfg.Duration = trialWindow
				cfg.ArenaBytes = 16 << 20
				res, err := mmicro.Run(cfg, e.NewMutex(topo))
				if err != nil {
					b.Fatal(err)
				}
				rate += res.PairsPerMs()
				reuse += 100 * res.RemoteReuseRate()
			}
			b.ReportMetric(rate/float64(b.N), "pairs/ms")
			b.ReportMetric(reuse/float64(b.N), "remote-reuse%")
		})
	}
}

// BenchmarkAblationHandoff measures the §4.1.1 hand-off bound
// trade-off on C-BO-MCS: throughput and fairness per limit.
func BenchmarkAblationHandoff(b *testing.B) {
	threads := contendedThreads()
	for _, limit := range []int64{1, 16, 64, 256, -1} {
		name := "limit-64"
		switch {
		case limit < 0:
			name = "unbounded"
		default:
			name = "limit-" + itoa(limit)
		}
		e, err := registry.Find("c-bo-mcs", core.WithHandoffLimit(limit))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			topo := numa.New(4, threads)
			var tp, fair float64
			for i := 0; i < b.N; i++ {
				cfg := lbench.DefaultConfig(topo, threads)
				cfg.Duration = trialWindow
				res, err := lbench.Run(cfg, e.NewMutex(topo))
				if err != nil {
					b.Fatal(err)
				}
				tp += res.Throughput()
				fair += res.FairnessStdDevPct()
			}
			b.ReportMetric(tp/float64(b.N), "pairs/s")
			b.ReportMetric(fair/float64(b.N), "stddev%")
		})
	}
}

// BenchmarkAblationBatch measures §4.1.2's batching statistic: the
// average run of same-cluster critical sections per lock.
func BenchmarkAblationBatch(b *testing.B) {
	for _, name := range []string{"mcs", "hbo", "hclh", "fc-mcs", "c-bo-mcs", "c-tkt-tkt"} {
		b.Run(name, func(b *testing.B) {
			benchLBench(b, name, contendedThreads(), lbench.Result.AvgBatch, "CS/batch")
		})
	}
}

// BenchmarkUncontended measures single-thread lock+unlock latency for
// every blocking lock — the low-contention overhead discussion of
// §4.1.3 (here ns/op is the metric itself) — and, as exec/<name> rows,
// what one proc pays to run a no-op closure through each executor over
// c-bo-mcs: the bare bracket, then the combining core, whose distance
// from it is the combiner's fixed cost when there is nothing to
// combine, and the reader-writer executor's ExecShared, one RLock.
// State -cpu (say -cpu 2) when comparing exec rows: numa.New
// sets the spin discipline from GOMAXPROCS, and a combiner's
// batch-boundary yield only costs anything under the oversubscribed
// one.
func BenchmarkUncontended(b *testing.B) {
	for _, name := range registry.Names() {
		e := registry.MustLookup(name)
		if e.NewMutex == nil {
			continue
		}
		b.Run(name, func(b *testing.B) {
			topo := numa.New(4, 4)
			l := e.NewMutex(topo)
			p := topo.Proc(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock(p)
				l.Unlock(p)
			}
		})
	}
	for _, name := range []string{"c-bo-mcs", "comb-a-c-bo-mcs", "comb-a-rw-c-bo-mcs"} {
		b.Run("exec/"+name, func(b *testing.B) {
			topo := numa.New(2, 4)
			e := registry.MustLookup(name)
			x := e.ExecFactory(topo)()
			exec := x.Exec
			if strings.HasPrefix(name, "comb-a-rw-") {
				exec = x.ExecShared
			}
			p := topo.Proc(0)
			fn := func() {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exec(p, fn)
			}
		})
	}
}

// rwTrialOpsPerSec runs one fixed-window trial against a reader-writer
// lock: threads workers draw a readPct read mix; reads go through
// shared mode when shared is set, everything else through exclusive
// mode. Both RW benchmark families share this harness.
func rwTrialOpsPerSec(topo *numa.Topology, l locks.RWMutex, threads, readPct int, shared bool) float64 {
	var ops atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(p *numa.Proc) {
			defer wg.Done()
			n := uint64(0)
			for {
				select {
				case <-stop:
					ops.Add(n)
					return
				default:
				}
				if read := int(p.RandN(100)) < readPct; read && shared {
					l.RLock(p)
					l.RUnlock(p)
				} else {
					l.Lock(p)
					l.Unlock(p)
				}
				n++
			}
		}(topo.Proc(w))
	}
	time.Sleep(trialWindow)
	close(stop)
	wg.Wait()
	return float64(ops.Load()) / trialWindow.Seconds()
}

// BenchmarkRWCohort sweeps read fractions (50/90/99%) over the
// reader-writer cohort lock, racing shared-mode reads against the same
// construction with every read through exclusive mode — the read-side
// scaling claim in one exhibit. At 99% reads shared mode should pull
// away; at 50% the writer drain dominates and the gap closes.
func BenchmarkRWCohort(b *testing.B) {
	threads := contendedThreads()
	for _, readPct := range []int{50, 90, 99} {
		for _, shared := range []bool{true, false} {
			name := "read" + itoa(int64(readPct)) + "/exclusive"
			if shared {
				name = "read" + itoa(int64(readPct)) + "/shared"
			}
			b.Run(name, func(b *testing.B) {
				topo := numa.New(4, threads)
				l := registry.MustLookup("rw-c-bo-mcs").NewRW(topo)
				var sum float64
				for i := 0; i < b.N; i++ {
					sum += rwTrialOpsPerSec(topo, l, threads, readPct, shared)
				}
				b.ReportMetric(sum/float64(b.N), "ops/s")
			})
		}
	}
}

// BenchmarkKVReadPath measures the store's read path beyond one shard:
// a 99% read mix over 4 shards, shared-mode Gets vs the
// same rw lock driven exclusively — the end-to-end version of
// BenchmarkRWCohort through every store layer.
func BenchmarkKVReadPath(b *testing.B) {
	threads := contendedThreads()
	e := registry.MustLookup("rw-c-bo-mcs")
	const keyspace = 20_000
	for _, shared := range []bool{true, false} {
		name := "exclusive"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			topo := numa.New(4, threads)
			newRW := e.RWFactory(topo)
			if !shared {
				newRW = func() locks.RWMutex { return locks.RWFromMutex(e.NewRW(topo)) }
			}
			var sum float64
			for i := 0; i < b.N; i++ {
				store := kvstore.New(kvstore.Config{
					Topo:     topo,
					Locking:  kvstore.FromRW(newRW),
					Shards:   4,
					Capacity: keyspace * 2,
				})
				kvload.Populate(store, topo.Proc(0), keyspace, 128)
				cfg := kvload.DefaultConfig(topo, threads, 0.99)
				cfg.Duration = trialWindow
				cfg.Keyspace = keyspace
				res, err := kvload.Run(cfg, store)
				if err != nil {
					b.Fatal(err)
				}
				sum += res.Throughput()
			}
			b.ReportMetric(sum/float64(b.N), "ops/s")
		})
	}
}

// BenchmarkExtensionRWCohort measures the reader-writer extension:
// read-mostly throughput where readers touch only their cluster's
// counter line (shared mode throughout; the write-pct axis complements
// BenchmarkRWCohort's shared-vs-exclusive read sweep).
func BenchmarkExtensionRWCohort(b *testing.B) {
	threads := contendedThreads()
	for _, writePct := range []int{0, 5, 50} {
		b.Run("write"+itoa(int64(writePct)), func(b *testing.B) {
			topo := numa.New(4, threads)
			l := registry.MustLookup("rw-c-bo-mcs").NewRW(topo)
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += rwTrialOpsPerSec(topo, l, threads, 100-writePct, true)
			}
			b.ReportMetric(sum/float64(b.N), "ops/s")
		})
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
