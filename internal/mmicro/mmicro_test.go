package mmicro

import (
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

func fastCfg(topo *numa.Topology, threads int) Config {
	cfg := DefaultConfig(topo, threads)
	cfg.Duration = 50 * time.Millisecond
	cfg.DelayNs = 200
	cfg.ArenaBytes = 4 << 20
	return cfg
}

func TestValidation(t *testing.T) {
	topo := numa.New(4, 8)
	if _, err := Run(Config{}, locks.NewPthread()); err == nil {
		t.Error("nil topo accepted")
	}
	cfg := fastCfg(topo, 4)
	cfg.Threads = 9
	if _, err := Run(cfg, locks.NewPthread()); err == nil {
		t.Error("thread overflow accepted")
	}
	cfg = fastCfg(topo, 4)
	cfg.InitWords = 100
	if _, err := Run(cfg, locks.NewPthread()); err == nil {
		t.Error("init words exceeding block accepted")
	}
	cfg = fastCfg(topo, 4)
	cfg.Duration = 0
	if _, err := Run(cfg, locks.NewPthread()); err == nil {
		t.Error("zero duration accepted")
	}
	cfg = fastCfg(topo, 4)
	cfg.BlockSize = 0
	if _, err := Run(cfg, locks.NewPthread()); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestRunCompletesPairs(t *testing.T) {
	topo := numa.New(4, 8)
	res, err := Run(fastCfg(topo, 4), locks.NewPthread())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs == 0 {
		t.Fatal("no pairs completed")
	}
	if res.Alloc.Mallocs != res.Alloc.Frees {
		t.Fatalf("mallocs %d != frees %d (each pair frees its block)",
			res.Alloc.Mallocs, res.Alloc.Frees)
	}
	if res.Alloc.Mallocs != res.Pairs {
		t.Fatalf("mallocs %d != pairs %d", res.Alloc.Mallocs, res.Pairs)
	}
	if res.PairsPerMs() <= 0 {
		t.Fatal("non-positive rate")
	}
	var sum uint64
	for _, v := range res.PerThread {
		sum += v
	}
	if sum != res.Pairs {
		t.Fatal("per-thread sum mismatch")
	}
}

func TestRunSteadyStateRecycles(t *testing.T) {
	// After warmup, every malloc should be served by recycling, not
	// the wilderness: carves stay near the thread count.
	topo := numa.New(4, 8)
	res, err := Run(fastCfg(topo, 8), locks.NewMCS(topo))
	if err != nil {
		t.Fatal(err)
	}
	if res.Alloc.Carves > res.Pairs/2+16 {
		t.Fatalf("carves %d vs pairs %d: recycling not working", res.Alloc.Carves, res.Pairs)
	}
}

func TestRunUnderCohortLock(t *testing.T) {
	topo := numa.New(4, 16)
	res, err := Run(fastCfg(topo, 16), registry.MustLookup("c-bo-mcs").NewMutex(topo))
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs == 0 {
		t.Fatal("no progress under cohort lock")
	}
	if rate := res.RemoteReuseRate(); rate < 0 || rate > 1 {
		t.Fatalf("remote reuse rate %v out of range", rate)
	}
}

func TestCohortReusesLocallyMoreThanMCS(t *testing.T) {
	// The Table 2 mechanism: cohort batching keeps recycled blocks in
	// the allocating cluster, so its remote-reuse rate must be lower.
	topo := numa.New(4, 16)
	cfg := fastCfg(topo, 16)
	cfg.Duration = 150 * time.Millisecond
	mcs, err := Run(cfg, locks.NewMCS(topo))
	if err != nil {
		t.Fatal(err)
	}
	cbm, err := Run(cfg, registry.MustLookup("c-bo-mcs").NewMutex(topo))
	if err != nil {
		t.Fatal(err)
	}
	if cbm.RemoteReuseRate() >= mcs.RemoteReuseRate() {
		t.Errorf("cohort remote reuse %.3f not below MCS %.3f",
			cbm.RemoteReuseRate(), mcs.RemoteReuseRate())
	}
}

func TestResultEdgeCases(t *testing.T) {
	var r Result
	if r.PairsPerMs() != 0 || r.RemoteReuseRate() != 0 {
		t.Fatal("zero-value Result should yield zero metrics")
	}
}
