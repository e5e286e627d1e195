// Compact: the index-memory experiment in miniature. The same store
// is populated twice — once with pointer-linked metadata (every item
// an individual GC allocation, hash chains and LRU links as Go
// pointers), once with the compact layout (items resident in
// per-shard pointer-free slabs, every link a uint32 slab index) —
// and a forced collection is timed over each. Both stores use arena
// value memory, so value bytes are off the GC heap in both and the
// only difference the collector sees is the metadata itself: pointer
// mode leaves one traceable object and three pointers per key,
// compact mode a handful of large pointer-free chunks per shard.
// GC mark work collapses from O(keys) to O(shards + chunks).
//
// Run with:
//
//	go run ./examples/compact
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
	topo := numa.New(4, 8)
	e := registry.MustLookup("c-bo-mcs")
	const (
		keyspace = 200_000
		valSize  = 64
		gcRounds = 5
	)

	for _, im := range []kvstore.IndexMemory{kvstore.IndexPointer, kvstore.IndexCompact} {
		store := kvstore.New(kvstore.Config{
			Topo:        topo,
			Locking:     kvstore.FromMutex(e.MutexFactory(topo)),
			Shards:      4,
			Placement:   kvstore.ClusterAffine,
			Capacity:    keyspace * 2,
			Buckets:     keyspace,
			ValueMemory: kvstore.ValueArena,
			ArenaBytes:  keyspace * valSize * 4,
			IndexMemory: im,
		})
		kvload.PopulateClusters(store, topo, keyspace, valSize)
		runtime.GC() // settle population garbage before timing

		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		began := time.Now()
		for i := 0; i < gcRounds; i++ {
			runtime.GC()
		}
		perGC := time.Since(began) / gcRounds

		fmt.Printf("%-8s %9d heap objects   %8.2fms per forced GC\n",
			im, ms.HeapObjects, float64(perGC.Microseconds())/1e3)

		if err := store.CompactCheck(); err != nil {
			fmt.Println("compact check failed:", err)
			return
		}
		if err := store.ArenaCheck(topo.Proc(0)); err != nil {
			fmt.Println("arena check failed:", err)
			return
		}
	}

	fmt.Println("\nPointer mode gives the collector one object to trace per key —")
	fmt.Println("mark work and pause times scale with how much the store HOLDS.")
	fmt.Println("Compact mode packs items into chunked pointer-free slabs linked")
	fmt.Println("by uint32 indices; the collector sees a few hundred large noscan")
	fmt.Println("allocations regardless of key count, so GC cost scales with")
	fmt.Println("traffic, not with residency.")
}
