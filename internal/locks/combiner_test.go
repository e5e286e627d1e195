package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/numa"
)

// TestSoloPathUnpublished pins what the solo path is: a lone caller
// under an exclusive bracket runs its closure with the cluster gate
// held, its slot never posted and its own request the only one the
// occupancy counter sees, and leaves the gate free and the counter
// at zero (checkSingleProc has the acquisition count).
func TestSoloPathUnpublished(t *testing.T) {
	t.Run("comb-a", func(t *testing.T) {
		topo := numa.New(2, 4)
		c := &NewCombiningAdaptive(topo, NewMCS(topo)).combiner
		p := topo.Proc(0)
		slot, gate, oc := &c.slots[p.ID()], &c.gates[p.Cluster()], &c.occ[p.Cluster()]
		for i := 0; i < 100; i++ {
			var state, held, occ int32
			c.Exec(p, func() { state, held, occ = slot.state.Load(), gate.held.Load(), oc.n.Load() })
			if state != combIdle || held != 1 || occ != 1 {
				t.Fatalf("inside solo closure %d: slot state %d, gate %d, occupancy %d; want idle (%d), held and 1", i, state, held, occ, combIdle)
			}
			if st, h, o := slot.state.Load(), gate.held.Load(), occupancy(c); st != combIdle || h != 0 || o != 0 {
				t.Fatalf("after solo Exec %d: slot state %d, gate %d, occupancy %d; want idle, free and 0", i, st, h, o)
			}
		}
	})
}

// TestSoloCombinerServesLateArrival is what the solo path must keep of
// eager election: a same-cluster peer that posts while the solo
// combiner is inside the bracket rides that bracket. Proc A's closure
// parks until B's slot reads posted, so the overlap is a rendezvous,
// not a race window.
func TestSoloCombinerServesLateArrival(t *testing.T) {
	t.Run("comb-a", func(t *testing.T) {
		topo := numa.New(2, 4)
		var acquisitions atomic.Uint64
		c := &NewCombiningAdaptive(topo, CountAcquisitions(NewMCS(topo), &acquisitions)).combiner
		a, b := topo.Proc(0), topo.Proc(2)
		if a.Cluster() != b.Cluster() {
			t.Fatal("test needs two procs on one cluster")
		}
		inside, done := make(chan struct{}), make(chan struct{})
		ranB := 0
		go func() {
			defer close(done)
			<-inside
			c.Exec(b, func() { ranB++ })
		}()
		solo, arrived := false, false
		c.Exec(a, func() {
			solo = c.slots[a.ID()].state.Load() == combIdle
			close(inside)
			for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
				if arrived = c.slots[b.ID()].state.Load() == combPosted; arrived {
					return
				}
			}
		})
		<-done
		if !solo {
			t.Fatal("lone caller's closure ran from a posted slot, not on the solo path")
		}
		if !arrived {
			t.Fatal("peer never posted while the solo combiner held the bracket")
		}
		if ranB != 1 {
			t.Fatalf("late arrival's closure ran %d times, want 1", ranB)
		}
		if acq := acquisitions.Load(); acq != 1 {
			t.Fatalf("2 closures over %d acquisitions, want 1 (the peer rides the solo bracket)", acq)
		}
		if occ := occupancy(c); occ != 0 {
			t.Fatalf("quiescent occupancy = %d, want 0", occ)
		}
	})
}

// TestRescueSweepServesOrphanedCluster posts a closure on a cluster
// whose procs never run their election — members starved of processor
// time — and checks that one batch from the other cluster runs it and
// leaves the orphaned cluster's gate free. The hand-post follows Exec's
// protocol: occupancy is raised before the slot is posted and lowered
// after it is consumed.
func TestRescueSweepServesOrphanedCluster(t *testing.T) {
	t.Run("exclusive", func(t *testing.T) {
		topo := numa.New(2, 4)
		var acquisitions atomic.Uint64
		c := &NewCombiningAdaptive(topo, CountAcquisitions(NewMCS(topo), &acquisitions)).combiner
		server, orphan := topo.Proc(0), topo.Proc(1)
		if server.Cluster() == orphan.Cluster() {
			t.Fatal("test needs procs on two clusters")
		}
		ran := 0
		slot := &c.slots[orphan.ID()]
		c.occ[orphan.Cluster()].n.Add(1)
		slot.fn = func() { ran++ }
		slot.state.Store(combPosted)

		served := execBesidePeer(c, server)
		c.occ[orphan.Cluster()].n.Add(-1)

		if served != 1 || ran != 1 {
			t.Fatalf("server closure ran %d times, orphaned closure %d times; want 1 and 1", served, ran)
		}
		if st := slot.state.Load(); st != combDone {
			t.Fatalf("orphaned slot state = %d, want done (%d)", st, combDone)
		}
		if held := c.gates[orphan.Cluster()].held.Load(); held != 0 {
			t.Fatalf("orphaned cluster's gate left held (%d) after the sweep", held)
		}
		if acq := acquisitions.Load(); acq != 1 {
			t.Fatalf("served and orphaned closures ran under %d acquisitions, want 1", acq)
		}
	})
}

// TestRescueSweepSkipsIdleCluster is the other side of the sweep's
// occupancy gate: a cluster whose occupancy reads zero cannot have a
// posted slot, so a batch must not touch its gate or its slots. A
// closure is planted in a slot with no occupancy behind it — a state
// Exec cannot produce — so a sweep that took the gate and harvested
// anyway would show as a run closure and a consumed slot.
func TestRescueSweepSkipsIdleCluster(t *testing.T) {
	t.Run("exclusive", func(t *testing.T) {
		topo := numa.New(2, 4)
		var acquisitions atomic.Uint64
		c := &NewCombiningAdaptive(topo, CountAcquisitions(NewMCS(topo), &acquisitions)).combiner
		server, idle := topo.Proc(0), topo.Proc(1)
		ran := 0
		slot := &c.slots[idle.ID()]
		slot.fn = func() { ran++ }
		slot.state.Store(combPosted)

		if served := execBesidePeer(c, server); served != 1 || ran != 0 {
			t.Fatalf("server closure ran %d times, idle cluster's planted closure %d times; want 1 and 0", served, ran)
		}
		if st := slot.state.Load(); st != combPosted {
			t.Fatalf("idle cluster's slot state = %d, want untouched (%d)", st, combPosted)
		}
		if held := c.gates[idle.Cluster()].held.Load(); held != 0 {
			t.Fatalf("idle cluster's gate left held (%d)", held)
		}
		if acq := acquisitions.Load(); acq != 1 {
			t.Fatalf("server closure ran under %d acquisitions, want 1", acq)
		}
	})
}

// execBesidePeer runs one counting closure through c on server's
// posted path: a same-cluster peer in flight (raised occupancy) keeps
// server off the solo path, which sweeps without having posted. It
// reports how often the closure ran.
func execBesidePeer(c *combiner, server *numa.Proc) (served int) {
	oc := &c.occ[server.Cluster()]
	oc.n.Add(1)
	c.Exec(server, func() { served++ })
	oc.n.Add(-1)
	return served
}

// occupancy sums the in-flight request counter over c's clusters.
func occupancy(c *combiner) (n int32) {
	for i := range c.occ {
		n += c.occ[i].n.Load()
	}
	return n
}

// TestAdaptiveOccupancyIntrospection: the occupancy counter that
// steers election and harvest sees posters piled up behind a held
// inner lock, cluster by cluster, and drains to zero with them.
func TestAdaptiveOccupancyIntrospection(t *testing.T) {
	topo := numa.New(2, 16)
	for _, cc := range []struct {
		name string
		new  func(inner Mutex) *combiner
	}{
		{"comb-a", func(m Mutex) *combiner { return &NewCombiningAdaptive(topo, m).combiner }},
		{"comb-a-rw", func(m Mutex) *combiner { return &NewRWCombiningAdaptive(topo, RWFromMutex(m)).combiner }},
	} {
		t.Run(cc.name, func(t *testing.T) {
			inner := NewMCS(topo)
			c := cc.new(inner)
			if occ := occupancy(c); occ != 0 {
				t.Fatalf("idle occupancy = %d, want 0", occ)
			}
			holder := topo.Proc(15)
			inner.Lock(holder)
			const workers = 6
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c.Exec(topo.Proc(2*w), func() {}) // all on cluster 0
				}(i)
			}
			deadline := time.Now().Add(30 * time.Second)
			for c.occ[0].n.Load() < workers {
				if time.Now().After(deadline) {
					inner.Unlock(holder)
					t.Fatalf("cluster 0 occupancy stuck at %d, want %d", c.occ[0].n.Load(), workers)
				}
				runtime.Gosched()
			}
			if got := c.occ[1].n.Load(); got != 0 {
				t.Errorf("cluster 1 occupancy = %d, want 0 (no cluster-1 posters)", got)
			}
			inner.Unlock(holder)
			wg.Wait()
			if occ := occupancy(c); occ != 0 {
				t.Fatalf("post-drain occupancy = %d, want 0", occ)
			}
		})
	}
}
