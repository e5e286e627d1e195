package locks

import (
	"sync"
	"testing"

	"repro/internal/numa"
)

// TestCombiningSinglePass runs the core under a policy no constructor
// picks — one patience window and ONE harvest sweep however many
// posters pile up (the adaptive policy sweeps once only when idle) —
// because the policy is a value: whatever it says, every closure runs
// exactly once and alone.
func TestCombiningSinglePass(t *testing.T) {
	topo := numa.New(2, 8)
	var c combiner
	c.init(topo, NewMCS(topo), false, policy{patienceCap: 1, minPasses: 1, maxPasses: 1})
	const procs, iters = 8, 300
	n := 0 // guarded by c
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(p *numa.Proc) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				c.Exec(p, func() { n++ })
			}
		}(topo.Proc(i))
	}
	wg.Wait()
	if n != procs*iters || c.Ops() != procs*iters {
		t.Fatalf("ran %d closures, Ops() = %d, want %d", n, c.Ops(), procs*iters)
	}
	if b := c.Batches(); b == 0 || b > c.Ops() {
		t.Fatalf("%d batches for %d ops", b, c.Ops())
	}
}

// TestRescueSweepServesOrphanedCluster posts a closure on a cluster
// whose procs never run their election — members starved of processor
// time — and checks that one batch from the other cluster runs it and
// leaves the orphaned cluster's gate free, under either bracket.
func TestRescueSweepServesOrphanedCluster(t *testing.T) {
	topo := numa.New(2, 4)
	x := NewRWCombining(topo, NewRWPerCluster(topo, NewMCS(topo)))
	for name, c := range map[string]*combiner{"exclusive": &x.combiner, "shared": &x.reads} {
		t.Run(name, func(t *testing.T) {
			server, orphan := topo.Proc(0), topo.Proc(1)
			if server.Cluster() == orphan.Cluster() {
				t.Fatal("test needs procs on two clusters")
			}
			ran := 0
			slot := &c.slots[orphan.ID()]
			slot.fn = func() { ran++ }
			slot.state.Store(combPosted)

			// A same-cluster peer in flight keeps the server off the
			// shared bracket's lone-poster bypass, which never combines.
			c.occ[server.Cluster()].n.Add(1)
			served := 0
			c.Exec(server, func() { served++ })
			c.occ[server.Cluster()].n.Add(-1)

			if served != 1 || ran != 1 {
				t.Fatalf("server closure ran %d times, orphaned closure %d times; want 1 and 1", served, ran)
			}
			if st := slot.state.Load(); st != combDone {
				t.Fatalf("orphaned slot state = %d, want done (%d)", st, combDone)
			}
			if held := c.gates[orphan.Cluster()].held.Load(); held != 0 {
				t.Fatalf("orphaned cluster's gate left held (%d) after the sweep", held)
			}
			if ops, batches := c.Ops(), c.Batches(); ops != 2 || batches != 1 {
				t.Fatalf("%d ops over %d batches, want 2 over 1", ops, batches)
			}
		})
	}
}
