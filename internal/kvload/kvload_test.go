package kvload

import (
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
)

func fastStore(topo *numa.Topology) *kvstore.Store {
	return kvstore.New(kvstore.Config{
		Topo: topo, Locking: kvstore.FromMutex(func() locks.Mutex { return locks.NewPthread() }),
		Buckets: 1 << 10, Capacity: 1 << 14,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
}

func fastCfg(topo *numa.Topology, threads int, reads float64) Config {
	cfg := DefaultConfig(topo, threads, reads)
	cfg.Duration = 50 * time.Millisecond
	cfg.Keyspace = 1000
	cfg.ValueSize = 32
	cfg.ThinkNs = 0
	return cfg
}

func TestValidation(t *testing.T) {
	topo := numa.New(4, 8)
	s := fastStore(topo)
	bad := []Config{
		{},
		fastCfgMod(topo, func(c *Config) { c.Threads = 9 }),
		fastCfgMod(topo, func(c *Config) { c.Duration = 0 }),
		fastCfgMod(topo, func(c *Config) { c.Keyspace = 0 }),
		fastCfgMod(topo, func(c *Config) { c.ValueSize = 0 }),
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, s); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func fastCfgMod(topo *numa.Topology, mod func(*Config)) Config {
	cfg := fastCfg(topo, 4, 0.5)
	mod(&cfg)
	return cfg
}

func TestPopulateFillsKeyspace(t *testing.T) {
	topo := numa.New(4, 8)
	s := fastStore(topo)
	Populate(s, topo.Proc(0), 500, 32)
	if got := s.Len(topo.Proc(0)); got != 500 {
		t.Fatalf("Len = %d, want 500", got)
	}
}

func TestRunMixesOps(t *testing.T) {
	topo := numa.New(4, 8)
	s := fastStore(topo)
	Populate(s, topo.Proc(0), 1000, 32)
	cfg := fastCfg(topo, 8, 0.9)
	res, err := Run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations")
	}
	if res.Gets+res.Sets != res.Ops {
		t.Fatalf("gets %d + sets %d != ops %d", res.Gets, res.Sets, res.Ops)
	}
	// 90% gets: gets should dominate clearly.
	if res.Gets < res.Sets*3 {
		t.Fatalf("mix off: %d gets vs %d sets at 90%%", res.Gets, res.Sets)
	}
	var sum uint64
	for _, v := range res.PerThread {
		sum += v
	}
	if sum != res.Ops {
		t.Fatal("per-thread sum mismatch")
	}
	if res.Throughput() <= 0 {
		t.Fatal("non-positive throughput")
	}
	// Pre-populated keyspace: gets overwhelmingly hit.
	if res.Store.Hits == 0 {
		t.Fatal("no hits against populated store")
	}
}

func TestRunPureMixes(t *testing.T) {
	topo := numa.New(4, 8)
	for _, reads := range []float64{0, 1} {
		s := fastStore(topo)
		Populate(s, topo.Proc(0), 1000, 32)
		res, err := Run(fastCfg(topo, 4, reads), s)
		if err != nil {
			t.Fatal(err)
		}
		if reads == 0 && res.Gets != 0 {
			t.Errorf("0%% gets produced %d gets", res.Gets)
		}
		if reads == 1 && res.Sets != 0 {
			t.Errorf("100%% gets produced %d sets", res.Sets)
		}
	}
}

func TestRunWithCohortLock(t *testing.T) {
	// Integration: KV store under a cohort lock, multi-cluster load.
	topo := numa.New(4, 16)
	s := kvstore.New(kvstore.Config{
		Topo: topo, Locking: kvstore.FromMutex(func() locks.Mutex { return lockFromRegistry(topo) }),
		Buckets: 1 << 10, Capacity: 1 << 14,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
	Populate(s, topo.Proc(0), 1000, 32)
	res, err := Run(fastCfg(topo, 16, 0.5), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("cohort-locked store made no progress")
	}
}

func lockFromRegistry(topo *numa.Topology) locks.Mutex {
	// Built directly to avoid an import cycle with registry in tests.
	return locks.NewMCS(topo)
}

func TestReadFractionValidationAndMix(t *testing.T) {
	topo := numa.New(4, 8)
	s := fastStore(topo)
	for _, bad := range []float64{-0.1, 1.5, -0.01, 1.01} {
		cfg := fastCfg(topo, 4, 0.5)
		cfg.ReadFraction = bad
		if _, err := Run(cfg, s); err == nil {
			t.Errorf("read fraction %v accepted", bad)
		}
	}
	// Per-mille precision: at 0.99 reads, sets stay under 5% of ops.
	Populate(s, topo.Proc(0), 1000, 32)
	cfg := fastCfg(topo, 8, 0.99)
	res, err := Run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gets == 0 {
		t.Fatal("ReadFraction=0.99 produced no gets")
	}
	if res.Sets*20 > res.Ops {
		t.Fatalf("mix off: %d sets of %d ops at 99%% reads", res.Sets, res.Ops)
	}
	// A genuine RW store under a read-mostly fraction: the shared read
	// path and the load generator compose end-to-end.
	rw := kvstore.New(kvstore.Config{
		Topo:    topo,
		Locking: kvstore.FromRW(func() locks.RWMutex { return locks.NewRWPerCluster(topo, locks.NewMCS(topo)) }),
		Buckets: 1 << 10, Capacity: 1 << 14,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
	Populate(rw, topo.Proc(0), 1000, 32)
	res, err = Run(cfg, rw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Store.Hits == 0 {
		t.Fatal("RW store made no progress under read-mostly load")
	}
}

func TestRunSharded(t *testing.T) {
	topo := numa.New(4, 16)
	s := kvstore.New(kvstore.Config{
		Topo:    topo,
		Locking: kvstore.FromMutex(func() locks.Mutex { return lockFromRegistry(topo) }),
		Shards:  8,
		Buckets: 1 << 10, Capacity: 1 << 15,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
	Populate(s, topo.Proc(0), 1000, 32)
	res, err := Run(fastCfg(topo, 16, 0.9), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("sharded store made no progress")
	}
	// One pass from one proc warms every worker's keyspace, so with 90%
	// gets hits must dominate misses clearly.
	if res.Store.Hits < res.Store.Misses {
		t.Fatalf("hits %d < misses %d against warmed sharded store",
			res.Store.Hits, res.Store.Misses)
	}
}

func TestBatchValidation(t *testing.T) {
	topo := numa.New(4, 8)
	cfg := fastCfgMod(topo, func(c *Config) { c.BatchSize = -1 })
	if _, err := Run(cfg, fastStore(topo)); err == nil {
		t.Error("negative batch size accepted")
	}
}

func TestRunBatched(t *testing.T) {
	// The batched pipeline must keep the load generator's accounting
	// exact: worker counters, store statistics and the batch quantum
	// all line up.
	topo := numa.New(4, 8)
	for _, shards := range []int{1, 4} {
		store := kvstore.New(kvstore.Config{
			Topo:    topo,
			Locking: kvstore.FromMutex(func() locks.Mutex { return locks.NewPthread() }),
			Shards:  shards, MaxBatch: 8,
			Buckets: 1 << 10, Capacity: 1 << 14,
			Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
			ItemLocalNs: 1, ItemRemoteNs: 1,
		})
		Populate(store, topo.Proc(0), 1000, 32)
		cfg := fastCfg(topo, 4, 0.5)
		cfg.BatchSize = 16
		res, err := Run(cfg, store)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops == 0 {
			t.Fatalf("%d shards: no batched ops completed", shards)
		}
		if res.Gets+res.Sets != res.Ops {
			t.Fatalf("%d shards: gets %d + sets %d != ops %d", shards, res.Gets, res.Sets, res.Ops)
		}
		if res.Ops%uint64(cfg.BatchSize) != 0 {
			t.Fatalf("%d shards: ops %d is not a multiple of the batch size %d", shards, res.Ops, cfg.BatchSize)
		}
		st := res.Store
		if st.Gets != res.Gets || st.Sets < res.Sets {
			t.Fatalf("%d shards: store saw gets/sets %d/%d, workers issued %d/%d",
				shards, st.Gets, st.Sets, res.Gets, res.Sets)
		}
		if st.Hits+st.Misses != st.Gets {
			t.Fatalf("%d shards: hits %d + misses %d != gets %d", shards, st.Hits, st.Misses, st.Gets)
		}
	}
}

func TestRunBatchedThroughCombiningExecutor(t *testing.T) {
	// End to end through every new layer: batched load over a store
	// whose shards delegate to combining executors.
	topo := numa.New(4, 8)
	store := kvstore.New(kvstore.Config{
		Topo: topo,
		Locking: kvstore.FromExec(func() locks.Executor {
			return locks.NewCombiningAdaptive(topo, locks.NewMCS(topo))
		}),
		Shards: 2, MaxBatch: 8,
		Buckets: 1 << 10, Capacity: 1 << 14,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
	Populate(store, topo.Proc(0), 1000, 32)
	cfg := fastCfg(topo, 6, 0.9)
	cfg.BatchSize = 8
	res, err := Run(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops through the combining executor")
	}
	if res.Store.Gets != res.Gets {
		t.Fatalf("store saw %d gets, workers issued %d", res.Store.Gets, res.Gets)
	}
}
