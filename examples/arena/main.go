// Arena: the value-memory experiment in miniature. The same
// overwrite-churn workload — write-heavy mix, value sizes varying
// between 64 and 512 bytes, so most overwrites outgrow their buffer —
// runs against two stores under a cohort lock: one with GC-managed
// heap values, one with per-shard explicit-free arenas homed on each
// shard's cluster. The arena takes value churn off the Go heap
// entirely: allocs/op collapses, GC has nothing to trace, and freed
// blocks are recycled cluster-locally (the paper's Table 2 mechanism
// applied to the data plane instead of the allocator benchmark).
//
// Run with:
//
//	go run ./examples/arena
package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/kvload"
	"repro/internal/kvstore"
	"repro/internal/numa"
	"repro/internal/registry"
)

func main() {
	workers := runtime.GOMAXPROCS(0) - 1
	if workers < 4 {
		workers = 4
	}
	topo := numa.New(4, workers)
	e := registry.MustLookup("c-bo-mcs")
	const keyspace = 20_000

	for _, mem := range []kvstore.ValueMemory{kvstore.ValueHeap, kvstore.ValueArena} {
		store := kvstore.New(kvstore.Config{
			Topo:        topo,
			Locking:     kvstore.FromMutex(e.MutexFactory(topo)),
			Shards:      4,
			Placement:   kvstore.ClusterAffine,
			Capacity:    keyspace * topo.Clusters() * 2,
			ValueMemory: mem,
		})
		kvload.PopulateClusters(store, topo, keyspace, 128)
		runtime.GC() // population litters the heap; keep GC out of the window

		cfg := kvload.DefaultConfig(topo, workers, 10) // 90% sets: value churn
		cfg.Duration = 300 * time.Millisecond
		cfg.Keyspace = keyspace
		cfg.ValueSize = 64
		cfg.MaxValueSize = 512
		res, err := kvload.Run(cfg, store)
		if err != nil {
			fmt.Println("error:", err)
			return
		}

		fmt.Printf("%-6s %8.0f ops/s   %7.4f Go allocs/op   GC: %d cycles, %.2fms paused",
			mem, res.Throughput(), res.AllocsPerOp(), res.GCCycles,
			float64(res.GCPauseNs)/1e6)
		if st, ok := store.ArenaSnapshot(); ok {
			fmt.Printf("   arena: %d mallocs / %d frees, %d spills",
				st.Mallocs, st.Frees, res.Store.Spills)
		}
		fmt.Println()
		if err := store.ArenaCheck(topo.Proc(0)); err != nil {
			fmt.Println("arena check failed:", err)
			return
		}
	}

	fmt.Println("\nHeap mode allocates a fresh backing array whenever an overwrite")
	fmt.Println("outgrows a value's buffer — steady GC fodder on churning workloads.")
	fmt.Println("Arena mode carves values from per-shard explicit-free arenas: each")
	fmt.Println("shard frees and reallocates inside its own critical section, blocks")
	fmt.Println("recycle within the shard's home cluster, and the Go GC never sees")
	fmt.Println("the bytes.")
}
