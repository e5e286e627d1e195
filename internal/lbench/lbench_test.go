package lbench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

// quickCfg is a fast configuration for unit tests: tiny duration, no
// injected latency, no idle spin.
func quickCfg(topo *numa.Topology, threads int) Config {
	cfg := DefaultConfig(topo, threads)
	cfg.Duration = 50 * time.Millisecond
	cfg.Cache = cachesim.Config{}
	cfg.NonCSMaxNs = 0
	return cfg
}

func TestValidation(t *testing.T) {
	topo := numa.New(4, 8)
	if _, err := Run(Config{}, locks.NewPthread()); err == nil {
		t.Error("nil topology accepted")
	}
	bad := quickCfg(topo, 9) // more threads than procs
	if _, err := Run(bad, locks.NewPthread()); err == nil {
		t.Error("thread overflow accepted")
	}
	bad = quickCfg(topo, 4)
	bad.Duration = 0
	if _, err := Run(bad, locks.NewPthread()); err == nil {
		t.Error("zero duration accepted")
	}
	bad = quickCfg(topo, 4)
	bad.CSLines = 0
	if _, err := Run(bad, locks.NewPthread()); err == nil {
		t.Error("zero CS lines accepted")
	}
	abad := quickCfg(topo, 4)
	abad.Patience = 0
	if _, err := RunAbortable(abad, locks.NewACLH(topo)); err == nil {
		t.Error("zero patience accepted for abortable run")
	}
}

func TestRunProducesConsistentCounts(t *testing.T) {
	topo := numa.New(4, 16)
	cfg := quickCfg(topo, 8)
	res, err := Run(cfg, locks.NewMCS(topo))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	var sum uint64
	for _, v := range res.PerThread {
		sum += v
	}
	if sum != res.Ops {
		t.Fatalf("per-thread sum %d != total %d", sum, res.Ops)
	}
	// Every op touches CSLines lines.
	if res.Cache.Accesses != res.Ops*uint64(cfg.CSLines) {
		t.Fatalf("cache accesses %d, want %d", res.Cache.Accesses, res.Ops*uint64(cfg.CSLines))
	}
	if res.Throughput() <= 0 {
		t.Fatal("non-positive throughput")
	}
	if res.Aborts != 0 || res.Attempts != 0 {
		t.Fatalf("blocking run reports %d aborts over %d attempts, want 0 and 0", res.Aborts, res.Attempts)
	}
	if res.Elapsed < cfg.Duration {
		t.Fatalf("elapsed %v shorter than configured %v", res.Elapsed, cfg.Duration)
	}
}

func TestSingleThreadNoMigrationsAfterFirst(t *testing.T) {
	topo := numa.New(4, 4)
	cfg := quickCfg(topo, 1)
	res, err := Run(cfg, locks.NewBO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 1 {
		t.Fatalf("single thread migrations = %d, want exactly 1 (the cold entry)", res.Migrations)
	}
	if res.FairnessStdDevPct() != 0 {
		t.Fatal("single thread should have zero fairness deviation")
	}
}

// mcsAgainstCohort judges MCS against C-BO-MCS under 16-thread,
// 4-cluster contention. A single 150 ms wall-clock sample on a shared
// box occasionally catches the cohort lock preempted mid-batch, so it
// takes up to three fresh samples, passes on the first that violates
// nothing, logs every rejected sample, and fails only when all three
// are rejected — a stopgap until the virtual-time assertions of
// ROADMAP item 3(b). violations describes what a sample got wrong.
func mcsAgainstCohort(t *testing.T, violations func(mcs, cbm Result) []string) {
	t.Helper()
	topo := numa.New(4, 16)
	cfg := quickCfg(topo, 16)
	cfg.Duration = 150 * time.Millisecond
	const samples = 3
	for i := 1; i <= samples; i++ {
		mcs, err := Run(cfg, locks.NewMCS(topo))
		if err != nil {
			t.Fatal(err)
		}
		cbm, err := Run(cfg, registry.MustLookup("c-bo-mcs").NewMutex(topo))
		if err != nil {
			t.Fatal(err)
		}
		bad := violations(mcs, cbm)
		if len(bad) == 0 {
			return
		}
		t.Logf("sample %d of %d rejected: %s", i, samples, strings.Join(bad, "; "))
	}
	t.Errorf("all %d samples violated the claim", samples)
}

func TestCohortLockMigratesLessThanMCS(t *testing.T) {
	// The load-bearing behavioural claim: under multi-cluster
	// contention a cohort lock migrates far less than fair MCS.
	mcsAgainstCohort(t, func(mcs, cbm Result) (bad []string) {
		mcsRate := float64(mcs.Migrations) / float64(mcs.Ops)
		cbmRate := float64(cbm.Migrations) / float64(cbm.Ops)
		if cbmRate > mcsRate/2 {
			bad = append(bad, fmt.Sprintf("cohort migration rate %.4f not well below MCS %.4f", cbmRate, mcsRate))
		}
		if cbm.AvgBatch() < mcs.AvgBatch() {
			bad = append(bad, fmt.Sprintf("cohort batch %.1f smaller than MCS batch %.1f", cbm.AvgBatch(), mcs.AvgBatch()))
		}
		return bad
	})
}

func TestMissesTrackMigrations(t *testing.T) {
	mcsAgainstCohort(t, func(mcs, cbm Result) (bad []string) {
		if cbm.MissesPerCS() >= mcs.MissesPerCS() {
			bad = append(bad, fmt.Sprintf("cohort misses/CS %.3f not below MCS %.3f", cbm.MissesPerCS(), mcs.MissesPerCS()))
		}
		return bad
	})
}

func TestRunAbortableAccountsAborts(t *testing.T) {
	topo := numa.New(4, 16)
	cfg := quickCfg(topo, 16)
	cfg.Patience = 20 * time.Microsecond
	res, err := RunAbortable(cfg, locks.NewACLH(topo))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts < res.Ops {
		t.Fatalf("attempts %d < ops %d", res.Attempts, res.Ops)
	}
	if res.Attempts != res.Ops+res.Aborts {
		t.Fatalf("attempts %d != ops %d + aborts %d", res.Attempts, res.Ops, res.Aborts)
	}
	if res.Ops == 0 {
		t.Fatal("no successful acquisitions")
	}
	if r := res.AbortRate(); r < 0 || r > 1 {
		t.Fatalf("abort rate %v out of range", r)
	}
}

func TestAbortableCohortRuns(t *testing.T) {
	topo := numa.New(4, 16)
	cfg := quickCfg(topo, 12)
	cfg.Patience = 100 * time.Microsecond
	res, err := RunAbortable(cfg, registry.MustLookup("a-c-bo-clh").NewTry(topo))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("A-C-BO-CLH made no progress under LBench")
	}
}

func TestResultMetricsEdgeCases(t *testing.T) {
	var r Result
	if r.Throughput() != 0 || r.MissesPerCS() != 0 || r.AbortRate() != 0 ||
		r.FairnessStdDevPct() != 0 {
		t.Fatal("zero-value Result should yield zero metrics")
	}
	r.Ops = 10
	if r.AvgBatch() != 10 {
		t.Fatal("AvgBatch with zero migrations should be Ops")
	}
}
