// KV cache: the paper's memcached experiment in miniature. A
// memcached-like store (hash table + LRU behind one cache lock) is
// driven with a write-heavy workload under the pthread-style mutex and
// under a cohort lock, reproducing the Table 1(c) effect: on
// write-heavy mixes the NUMA-aware lock wins by keeping the store's
// hot metadata cache-resident per cluster.
//
// Run with:
//
//	go run ./examples/kvcache
package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/kvload"
	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
)

func main() {
	workers := runtime.GOMAXPROCS(0) - 1
	if workers < 4 {
		workers = 4
	}
	topo := numa.New(4, workers)

	type candidate struct {
		name string
		lock locks.Mutex
	}
	for _, c := range []candidate{
		{"pthread (sync.Mutex)", locks.NewPthread()},
		{"MCS (NUMA-oblivious)", locks.NewMCS(topo)},
		{"C-BO-MCS (cohort)", core.NewCBOMCS(topo)},
	} {
		store := kvstore.New(kvstore.Config{Topo: topo, Locking: kvstore.FromLock(c.lock)})
		kvload.Populate(store, topo.Proc(0), 50_000, 128)

		cfg := kvload.DefaultConfig(topo, workers, 10) // 10% gets: write-heavy
		cfg.Keyspace = 50_000
		res, err := kvload.Run(cfg, store)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		st := res.Store
		fmt.Printf("%-22s %8.0f ops/sec  (hits %d, evictions %d, metadata misses %d)\n",
			c.name, res.Throughput(), st.Hits, st.Evictions, st.MetaMisses)
	}
	fmt.Println("\nWrite-heavy mixes serialize on the cache lock; the cohort lock")
	fmt.Println("batches same-cluster sets so the LRU/stats lines stay local.")
}
