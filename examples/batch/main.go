// Batched operations + combining execution: the two amortization
// levers this repository adds on top of lock quality. The paper's
// Table 1 shows the cache lock capping memcached no matter which lock
// guards it — every Get/Set still pays one full acquisition. This
// example drives the same 50% get / 50% set mix three ways:
//
//  1. per-op: one lock acquisition per operation (the Table 1 shape);
//  2. batched: MGet/MSet group 16 keys per call, so each shard runs a
//     whole chunk per acquisition;
//  3. batched + combining: the shard's critical sections are
//     additionally delegated to a combining executor, whose
//     per-cluster combiner merges batches from different workers
//     under a single acquisition of the underlying cohort lock.
//
// The printed ops-per-acquisition column is the point: the lock is
// acquired ever more rarely while the store does the same work.
//
// Run with:
//
//	go run ./examples/batch
package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"

	"repro/internal/kvload"
	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

func main() {
	workers := runtime.GOMAXPROCS(0) - 1
	if workers < 4 {
		workers = 4
	}
	topo := numa.New(4, workers)
	entry := registry.MustLookup("c-bo-mcs")
	const keyspace = 20_000

	type setup struct {
		name  string
		comb  bool
		batch int
	}
	fmt.Printf("%-26s %12s %14s %10s\n", "pipeline", "ops/sec", "acquisitions", "ops/acq")
	for _, s := range []setup{
		{"per-op (Table 1 shape)", false, 1},
		{"batched x16", false, 16},
		{"batched x16 + combining", true, 16},
	} {
		var acquisitions atomic.Uint64
		cfg := kvstore.Config{
			Topo:     topo,
			Shards:   4,
			MaxBatch: 16,
			Capacity: keyspace * 2,
		}
		newMutex := entry.MutexFactory(topo)
		if s.comb {
			cfg.Locking = kvstore.FromExec(func() locks.Executor {
				return locks.NewCombining(topo, locks.CountAcquisitions(newMutex(), &acquisitions))
			})
		} else {
			cfg.Locking = kvstore.FromMutex(func() locks.Mutex {
				return locks.CountAcquisitions(newMutex(), &acquisitions)
			})
		}
		store := kvstore.New(cfg)
		kvload.PopulateClusters(store, topo, keyspace, 128)

		before := acquisitions.Load()
		lcfg := kvload.DefaultConfig(topo, workers, 50)
		lcfg.Keyspace = keyspace
		lcfg.BatchSize = s.batch
		res, err := kvload.Run(lcfg, store)
		if err != nil {
			// CI smoke-runs this example; a failed run must fail the gate.
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		acq := acquisitions.Load() - before
		opsPerAcq := 0.0
		if acq > 0 {
			opsPerAcq = float64(res.Ops) / float64(acq)
		}
		fmt.Printf("%-26s %12.0f %14d %10.1f\n", s.name, res.Throughput(), acq, opsPerAcq)
	}

	fmt.Println("\nBatching amortizes the cache lock within one caller's MGet/MSet;")
	fmt.Println("combining amortizes it across callers, one cluster at a time. Both")
	fmt.Println("cut acquisitions per operation — the lever no better lock can pull.")
}
