// Read-side combining: the flat-combining trick applied to the READ
// path of a reader-writer lock.
//
// Shared mode already lets readers coexist, but every reader still
// pays its own RLock — an atomic RMW on the reader count (or per-
// cluster counter) per read. locks.NewRWCombining interposes a
// per-cluster reader-combiner: readers post their read closures into
// publication slots, one of them elects itself combiner, takes ONE
// shared acquisition of the underlying lock, and runs the whole
// harvested same-cluster batch under it. N overlapping same-cluster
// reads cost one RLock instead of N.
//
// The two regimes to watch:
//
//   - Idle: a lone reader bypasses the machinery — its closure runs
//     under its own RLock, and SharedBatches advances in lockstep with
//     SharedOps (1.0 ops per batch: no amortization, but none of the
//     election cost either).
//   - Contended: same-cluster readers pile up behind a writer; when
//     the writer leaves, the combiner drains them all under one
//     acquisition, and ops per shared acquisition climbs above 1.
//
// Run with:
//
//	go run ./examples/readcombine
package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvload"
	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

func die(err error) {
	if err != nil {
		// CI smoke-runs this example; a failed run must fail the gate.
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func main() {
	topo := numa.New(2, 16)

	// Exhibit 1: the executor itself, idle vs piled up, with the
	// underlying lock's shared acquisitions counted.
	var excl, shared atomic.Uint64
	inner := locks.NewRWPerCluster(topo, locks.NewMCS(topo))
	x := locks.NewRWCombining(topo, locks.CountRWAcquisitions(inner, &excl, &shared))

	// Idle: one reader, 1000 closures — every one takes the eager
	// single-closure bypass: its own RLock, batches == ops.
	p := topo.Proc(0)
	for i := 0; i < 1000; i++ {
		x.ExecShared(p, func() {})
	}
	fmt.Printf("%-28s %10s %10s %12s %12s\n", "regime", "ops", "batches", "shared acq", "ops/acq")
	fmt.Printf("%-28s %10d %10d %12d %12.2f\n",
		"idle (bypass)", x.SharedOps(), x.SharedBatches(), shared.Load(),
		float64(x.SharedOps())/float64(shared.Load()))

	// Contended: hold the inner lock exclusively so readers pile up,
	// then release — the elected combiner drains the same-cluster batch
	// under one shared acquisition.
	ops0, acq0 := x.SharedOps(), shared.Load()
	const readers = 8
	holder := topo.Proc(15) // cluster 1; the readers land on cluster 0
	inner.Lock(holder)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			x.ExecShared(topo.Proc(2*r), func() {})
		}(r)
	}
	time.Sleep(20 * time.Millisecond) // let every reader post its closure
	inner.Unlock(holder)
	wg.Wait()
	ops, acq := x.SharedOps()-ops0, shared.Load()-acq0
	fmt.Printf("%-28s %10d %10d %12d %12.2f\n",
		"contended (combined)", ops, x.SharedBatches(), acq, float64(ops)/float64(acq))

	// Exhibit 2: the same machinery under the key-value store. A
	// read-mostly batched load over comb-rw wiring posts every MGet
	// chunk as a read closure; concurrent same-cluster chunks fold into
	// one RLock of the base lock. The plain shared store pays one RLock
	// per chunk, always.
	workers := runtime.GOMAXPROCS(0) - 1
	if workers < 4 {
		workers = 4
	}
	ltopo := numa.New(4, workers)
	rw := registry.MustLookup("rw-c-bo-mcs")
	const keyspace = 20_000
	fmt.Printf("\n%-28s %12s %12s %14s\n", "MGet read path (99% gets)", "ops/sec", "shared acq", "shared ops/acq")
	for _, combined := range []bool{false, true} {
		var excl, shard atomic.Uint64
		var execs []*locks.RWCombining
		cfg := kvstore.Config{
			Topo:     ltopo,
			Shards:   4,
			MaxBatch: 16,
			Capacity: keyspace * 2,
		}
		if combined {
			newRW := rw.RWFactory(ltopo)
			cfg.Locking = kvstore.FromExec(func() locks.Executor {
				c := locks.NewRWCombining(ltopo, locks.CountRWAcquisitions(newRW(), &excl, &shard))
				execs = append(execs, c)
				return c
			})
		} else {
			newRW := rw.RWFactory(ltopo)
			cfg.Locking = kvstore.FromRW(func() locks.RWMutex {
				return locks.CountRWAcquisitions(newRW(), &excl, &shard)
			})
		}
		store := kvstore.New(cfg)
		kvload.PopulateClusters(store, ltopo, keyspace, 128)
		s0 := shard.Load()
		var ops0 uint64
		for _, c := range execs {
			ops0 += c.SharedOps()
		}
		lcfg := kvload.DefaultConfig(ltopo, workers, 99)
		lcfg.Keyspace = keyspace
		lcfg.ReadFraction = 0.99
		lcfg.BatchSize = 16
		res, err := kvload.Run(lcfg, store)
		die(err)
		acq := shard.Load() - s0
		name, perAcq := "shared chunks (baseline)", "-"
		if combined {
			var ops uint64
			for _, c := range execs {
				ops += c.SharedOps()
			}
			name = "read-combined (comb-rw)"
			perAcq = fmt.Sprintf("%.2f", float64(ops-ops0)/float64(acq))
		}
		fmt.Printf("%-28s %12.0f %12d %14s\n", name, res.Throughput(), acq, perAcq)
	}

	fmt.Println("\nIdle readers bypass straight into their own RLock — the combiner")
	fmt.Println("costs nothing when there is nothing to combine. Piled-up readers")
	fmt.Println("are drained in one shared acquisition, so the read path amortizes")
	fmt.Println("exactly when RLock traffic would otherwise be at its worst.")
}
