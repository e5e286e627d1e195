// An external test package: the benchmark drives the store through
// kvload, which imports kvstore.
package kvstore_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/kvload"
	"repro/internal/kvstore"
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
// acquisitions (`go test -bench BatchedStore/coldindex
// ./internal/kvstore`).
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
