package kvstore

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/locks"
	"repro/internal/numa"
)

// White-box tests of the locality accounting that drives Table 1.

func TestItemOwnershipMigrates(t *testing.T) {
	topo := numa.New(4, 8)
	s := New(Config{
		Topo: topo, Locking: FromMutex(func() locks.Mutex { return locks.NewPthread() }),
		Buckets: 16, Capacity: 100,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
	p0 := topo.Proc(0) // cluster 0
	p1 := topo.Proc(1) // cluster 1
	s.Set(p0, 1, []byte("v"))
	it := s.shards[0].find(1)
	if it.owner != 0 {
		t.Fatalf("owner = %d after cluster-0 set, want 0", it.owner)
	}
	// A read leaves the item's line, and its ownership, where they are.
	dst := make([]byte, 4)
	if _, ok := s.Get(p1, 1, dst); !ok {
		t.Fatal("cluster-1 get missed")
	}
	if it.owner != 0 {
		t.Fatalf("owner = %d after cluster-1 get, want 0", it.owner)
	}
	s.Set(p1, 1, []byte("w"))
	if it.owner != 1 {
		t.Fatalf("owner = %d after cluster-1 set, want 1", it.owner)
	}
}

func TestGetDoesNotChargeMetadataLines(t *testing.T) {
	// Gets only dirty the item's own line; the store's metadata domain
	// must stay untouched (the Table 1a "all spin locks alike" model).
	topo := numa.New(4, 8)
	s := New(Config{
		Topo: topo, Locking: FromMutex(func() locks.Mutex { return locks.NewPthread() }),
		Buckets: 16, Capacity: 100,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
	p := topo.Proc(0)
	s.Set(p, 1, []byte("v"))
	base := s.shards[0].domain.Snapshot().Accesses
	dst := make([]byte, 4)
	for i := 0; i < 10; i++ {
		s.Get(p, 1, dst)
	}
	if got := s.shards[0].domain.Snapshot().Accesses; got != base {
		t.Fatalf("gets touched %d metadata lines, want 0", got-base)
	}
}

func TestSetChargesBatchableLines(t *testing.T) {
	topo := numa.New(4, 8)
	s := New(Config{
		Topo: topo, Locking: FromMutex(func() locks.Mutex { return locks.NewPthread() }),
		Buckets: 16, Capacity: 100,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
	p := topo.Proc(0)
	s.Set(p, 1, []byte("v")) // insert: hash + alloc + LRU + stats
	base := s.shards[0].domain.Snapshot().Accesses
	s.Set(p, 1, []byte("w")) // update: LRU + stats only
	if got := s.shards[0].domain.Snapshot().Accesses - base; got != 2 {
		t.Fatalf("update set charged %d metadata accesses, want 2 (LRU + stats)", got)
	}
}

func TestMetadataMissesTrackClusterAlternation(t *testing.T) {
	// Alternating set clusters migrate the LRU/stats lines every op;
	// same-cluster runs keep them local — the Table 1c mechanism.
	topo := numa.New(4, 8)
	mk := func() *Store {
		return New(Config{
			Topo: topo, Locking: FromMutex(func() locks.Mutex { return locks.NewPthread() }),
			Buckets: 16, Capacity: 100,
			Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
			ItemLocalNs: 1, ItemRemoteNs: 1,
		})
	}
	val := []byte("v")

	alternating := mk()
	alternating.Set(topo.Proc(0), 1, val)
	base := alternating.Snapshot().MetaMisses
	for i := 0; i < 20; i++ {
		alternating.Set(topo.Proc(i%2), 1, val) // clusters 0,1,0,1...
	}
	altMisses := alternating.Snapshot().MetaMisses - base

	batched := mk()
	batched.Set(topo.Proc(0), 1, val)
	base = batched.Snapshot().MetaMisses
	for i := 0; i < 20; i++ {
		batched.Set(topo.Proc(0), 1, val) // all cluster 0
	}
	batchMisses := batched.Snapshot().MetaMisses - base

	if batchMisses != 0 {
		t.Fatalf("same-cluster sets missed %d times, want 0", batchMisses)
	}
	if altMisses < 20 {
		t.Fatalf("alternating sets missed only %d times, want >= 20", altMisses)
	}
}
