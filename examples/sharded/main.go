// Sharded store: the structural fix the cache lock cannot buy. The
// paper's Table 1 shows memcached capped by its single cache lock no
// matter how good that lock is; this example splits the same store
// into N shards — one cohort lock per shard, shards homed on NUMA
// clusters — and drives the 50% get / 50% set mix through one shard
// and through sixteen. ClusterAffine placement routes every worker to
// shards homed on its own cluster, so each shard's cohort lock sees
// only same-cluster traffic: the longest possible local runs.
//
// Run with:
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"runtime"

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
	entry := registry.MustLookup("c-bo-mcs")
	const keyspace = 20_000

	type setup struct {
		name      string
		shards    int
		placement kvstore.Placement
	}
	for _, s := range []setup{
		{"1 shard (Table 1 ceiling)", 1, kvstore.HashMod},
		{"16 shards, hash-mod", 16, kvstore.HashMod},
		{"16 shards, cluster-affine", 16, kvstore.ClusterAffine},
	} {
		store := kvstore.New(kvstore.Config{
			Topo:      topo,
			Locking:   kvstore.FromMutex(entry.MutexFactory(topo)),
			Shards:    s.shards,
			Placement: s.placement,
			Capacity:  keyspace * topo.Clusters() * 2,
		})
		kvload.PopulateClusters(store, topo, keyspace, 128)

		cfg := kvload.DefaultConfig(topo, workers, 50)
		cfg.Keyspace = keyspace
		res, err := kvload.Run(cfg, store)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-28s %9.0f ops/sec  (hits %d, misses %d, metadata misses %d)\n",
			s.name, res.Throughput(), res.Store.Hits, res.Store.Misses, res.Store.MetaMisses)
		if s.shards > 1 {
			for i := 0; i < store.NumShards(); i++ {
				st := res.PerShard[i]
				fmt.Printf("    shard %2d (home cluster %d): %7d ops\n",
					i, store.ShardHome(i), st.Gets+st.Sets)
			}
		}
	}

	fmt.Println("\nOne cache lock caps throughput at one critical section at a time;")
	fmt.Println("sharding multiplies that capacity, and cluster-affine placement hands")
	fmt.Println("each shard's cohort lock a single-cluster audience.")
}
