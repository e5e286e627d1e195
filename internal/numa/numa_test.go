package numa

import (
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct{ c, p int }{{0, 4}, {4, 0}, {-1, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.c, tc.p)
				}
			}()
			New(tc.c, tc.p)
		}()
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	topo := New(4, 16)
	for i := 0; i < 16; i++ {
		if got, want := topo.Proc(i).Cluster(), i%4; got != want {
			t.Errorf("Proc(%d).Cluster() = %d, want %d", i, got, want)
		}
	}
}

func TestProcHandlesStable(t *testing.T) {
	topo := New(2, 8)
	for i := 0; i < 8; i++ {
		a, b := topo.Proc(i), topo.Proc(i)
		if a != b {
			t.Fatalf("Proc(%d) returned distinct handles", i)
		}
		if a.ID() != i {
			t.Fatalf("Proc(%d).ID() = %d", i, a.ID())
		}
		if a.Cluster() != i%2 {
			t.Fatalf("Proc(%d).Cluster() = %d, want %d", i, a.Cluster(), i%2)
		}
	}
}

func TestProcOutOfRangePanics(t *testing.T) {
	topo := New(2, 4)
	for _, id := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Proc(%d) did not panic", id)
				}
			}()
			topo.Proc(id)
		}()
	}
}

func TestPlacementCoverage(t *testing.T) {
	check := func(clusters, procs uint8) bool {
		c := int(clusters%8) + 1
		p := int(procs%32) + c // at least one proc per cluster
		topo := New(c, p)
		seen := make([]bool, c)
		for i := 0; i < p; i++ {
			cl := topo.Proc(i).Cluster()
			if cl < 0 || cl >= c {
				return false
			}
			seen[cl] = true
		}
		// Round-robin with p >= c populates every cluster.
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProcRandVaries(t *testing.T) {
	topo := New(2, 4)
	p0, p1 := topo.Proc(0), topo.Proc(1)
	if p0.Rand() == p1.Rand() {
		t.Fatal("distinct procs produced identical first random values")
	}
	v := p0.RandN(10)
	if v < 0 || v >= 10 {
		t.Fatalf("RandN(10) = %d out of range", v)
	}
}

// TestMembersPartitionProcs: Members lists each cluster's procs in id
// order, and the clusters' lists together name every proc once.
func TestMembersPartitionProcs(t *testing.T) {
	topo := New(3, 10)
	seen := 0
	for c := 0; c < topo.Clusters(); c++ {
		prev := -1
		for _, id := range topo.Members(c) {
			if topo.Proc(id).Cluster() != c || id <= prev {
				t.Fatalf("Members(%d) = %v: want cluster %d's ids, ascending", c, topo.Members(c), c)
			}
			prev = id
			seen++
		}
	}
	if seen != topo.MaxProcs() {
		t.Fatalf("Members lists %d procs, want %d", seen, topo.MaxProcs())
	}
}

// TestOneParkerPerProc: a proc's parker is its own, the same on every
// call, so every lock wakes the parker its goroutine blocks on.
func TestOneParkerPerProc(t *testing.T) {
	topo := New(2, 4)
	for i := 0; i < 4; i++ {
		if topo.Proc(i).Parker() != topo.Proc(i).Parker() {
			t.Fatalf("Proc(%d).Parker() differs between calls", i)
		}
		for j := 0; j < i; j++ {
			if topo.Proc(i).Parker() == topo.Proc(j).Parker() {
				t.Fatalf("procs %d and %d share a parker", i, j)
			}
		}
	}
}
