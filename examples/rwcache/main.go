// RW cache: the read-mostly payoff of reader-writer cohorting. The
// same store, the same 99%-read traffic, three cache locks:
//
//   - C-BO-MCS (exclusive): every Get serializes through the cohort
//     lock — the Table 1 regime, where read-heavy mixes gain nothing.
//   - RW-C-BO-MCS, exclusive read path: the reader-writer lock built,
//     but driven with every Get through exclusive mode — isolating the
//     lock's overhead from the protocol win.
//   - RW-C-BO-MCS, shared read path: Gets run in shared mode. Readers
//     touch only their own cluster's reader counter, so Gets on
//     different clusters proceed together; the rare Sets still
//     serialize through the cohort writer lock, batching same-cluster
//     writers exactly as before.
//
// Run with:
//
//	go run ./examples/rwcache
package main

import (
	"fmt"
	"runtime"

	"repro/internal/kvload"
	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

func main() {
	workers := runtime.GOMAXPROCS(0) - 1
	if workers < 8 {
		workers = 8
	}
	topo := numa.New(4, workers)
	e := registry.MustLookup("rw-c-bo-mcs")
	const keyspace = 20_000

	type setup struct {
		name string
		lock locks.RWMutex
	}
	for _, s := range []setup{
		{"C-BO-MCS, exclusive Gets", locks.RWFromMutex(registry.MustLookup("c-bo-mcs").NewMutex(topo))},
		{"RW-C-BO-MCS, exclusive Gets", locks.RWFromMutex(e.NewRW(topo))},
		{"RW-C-BO-MCS, shared Gets", e.NewRW(topo)},
	} {
		store := kvstore.New(kvstore.Config{Topo: topo, Locking: kvstore.FromRWLock(s.lock)})
		kvload.Populate(store, topo.Proc(0), keyspace, 128)

		cfg := kvload.DefaultConfig(topo, workers, 99)
		cfg.Keyspace = keyspace
		cfg.ReadFraction = 0.99
		res, err := kvload.Run(cfg, store)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-30s %9.0f ops/sec  (hits %d, sets %d)\n",
			s.name, res.Throughput(), res.Store.Hits, res.Store.Sets)
	}

	fmt.Println("\nShared-mode Gets scale across clusters — each reader touches only")
	fmt.Println("its own cluster's counter line — while the writers that remain stay")
	fmt.Println("cohort-ordered behind the C-BO-MCS writer lock.")
}
