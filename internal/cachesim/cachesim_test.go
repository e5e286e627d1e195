package cachesim

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/numa"
)

func newTestDomain(nLines int) (*numa.Topology, *Domain) {
	topo := numa.New(4, 8)
	// Zero latencies keep tests fast; counting is what we verify.
	return topo, NewDomain(topo, nLines, Config{})
}

func TestFirstAccessIsMiss(t *testing.T) {
	topo, d := newTestDomain(4)
	p := topo.Proc(0)
	if !d.Access(p, 0, 1) {
		t.Fatal("cold line access should be a miss")
	}
	if d.Access(p, 0, 1) {
		t.Fatal("second same-cluster access should hit")
	}
}

func TestCrossClusterAccessMissesAndMigrates(t *testing.T) {
	topo, d := newTestDomain(1)
	p0 := topo.Proc(0) // cluster 0
	p1 := topo.Proc(1) // cluster 1 under round-robin
	if p0.Cluster() == p1.Cluster() {
		t.Fatal("test requires procs on distinct clusters")
	}
	d.Access(p0, 0, 1)
	if !d.Access(p1, 0, 1) {
		t.Fatal("cross-cluster access should miss")
	}
	if d.Access(p1, 0, 1) {
		t.Fatal("line should now be owned by cluster 1")
	}
	if !d.Access(p0, 0, 1) {
		t.Fatal("ownership should have migrated away from cluster 0")
	}
}

func TestSameClusterDifferentProcsHit(t *testing.T) {
	topo, d := newTestDomain(1)
	p0 := topo.Proc(0) // cluster 0
	p4 := topo.Proc(4) // also cluster 0 (4 mod 4)
	if p0.Cluster() != p4.Cluster() {
		t.Fatal("expected procs 0 and 4 to share a cluster")
	}
	d.Access(p0, 0, 1)
	if d.Access(p4, 0, 1) {
		t.Fatal("same-cluster access from a different proc should hit")
	}
}

func TestSnapshotCounts(t *testing.T) {
	topo, d := newTestDomain(2)
	p0, p1 := topo.Proc(0), topo.Proc(1)
	d.Access(p0, 0, 1) // miss (cold)
	d.Access(p0, 0, 1) // hit
	d.Access(p1, 0, 1) // miss (migrate)
	d.Access(p1, 1, 1) // miss (cold)
	s := d.Snapshot()
	if s.Accesses != 4 {
		t.Errorf("Accesses = %d, want 4", s.Accesses)
	}
	if s.Misses != 3 {
		t.Errorf("Misses = %d, want 3", s.Misses)
	}
}

func TestPayloadSumCountsEveryWrite(t *testing.T) {
	topo, d := newTestDomain(3)
	p := topo.Proc(0)
	total := 0
	for i := 0; i < 10; i++ {
		d.Access(p, i%3, 4)
		total += 4
	}
	if got := d.PayloadSum(); got != int64(total) {
		t.Fatalf("PayloadSum = %d, want %d", got, total)
	}
}

func TestNewDomainValidation(t *testing.T) {
	topo := numa.New(2, 2)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDomain with %d lines did not panic", n)
				}
			}()
			NewDomain(topo, n, Config{})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewDomain with negative latency did not panic")
			}
		}()
		NewDomain(topo, 1, Config{LocalNs: -1})
	}()
}

// Property: for a single-cluster topology, only cold misses occur, so
// misses == number of distinct lines touched.
func TestSingleClusterOnlyColdMisses(t *testing.T) {
	f := func(seq []uint8) bool {
		topo := numa.New(1, 2)
		d := NewDomain(topo, 8, Config{})
		p := topo.Proc(0)
		touched := map[int]bool{}
		for _, b := range seq {
			idx := int(b) % 8
			touched[idx] = true
			d.Access(p, idx, 1)
		}
		return d.Snapshot().Misses == uint64(len(touched))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving accesses from two clusters on one line yields
// a miss exactly at every cluster alternation (plus the cold miss).
func TestAlternationMissCount(t *testing.T) {
	f := func(pattern []bool) bool {
		if len(pattern) == 0 {
			return true
		}
		topo := numa.New(2, 2)
		d := NewDomain(topo, 1, Config{})
		procs := []*numa.Proc{topo.Proc(0), topo.Proc(1)}
		wantMisses := uint64(1) // cold
		prev := pattern[0]
		d.Access(procs[b2i(prev)], 0, 1)
		for _, cur := range pattern[1:] {
			if cur != prev {
				wantMisses++
			}
			d.Access(procs[b2i(cur)], 0, 1)
			prev = cur
		}
		return d.Snapshot().Misses == wantMisses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Under an external lock, concurrent goroutines' counters must sum
// exactly (the domain itself relies on the caller's mutual exclusion).
func TestConcurrentUnderExternalLock(t *testing.T) {
	topo := numa.New(4, 8)
	d := NewDomain(topo, 2, Config{})
	var mu sync.Mutex
	var wg sync.WaitGroup
	const perProc = 200
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			for k := 0; k < perProc; k++ {
				mu.Lock()
				d.Access(p, k&1, 2)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	s := d.Snapshot()
	if s.Accesses != 8*perProc {
		t.Fatalf("Accesses = %d, want %d", s.Accesses, 8*perProc)
	}
	if d.PayloadSum() != 8*perProc*2 {
		t.Fatalf("PayloadSum = %d, want %d", d.PayloadSum(), 8*perProc*2)
	}
}
