package kvstore

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/locks"
	"repro/internal/numa"
)

func newShardedStore(topo *numa.Topology, shards, capacity int, placement Placement) *Store {
	return New(Config{
		Topo:        topo,
		Locking:     FromMutex(func() locks.Mutex { return locks.NewPthread() }),
		Shards:      shards,
		Placement:   placement,
		Buckets:     256,
		Capacity:    capacity,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
}

func TestShardedRoundTrip(t *testing.T) {
	topo := numa.New(4, 8)
	for _, placement := range []Placement{HashMod, ClusterAffine} {
		s := newShardedStore(topo, 8, 1<<14, placement)
		p := topo.Proc(0)
		dst := make([]byte, 16)
		for k := uint64(0); k < 2000; k++ {
			s.Set(p, k, []byte{byte(k), byte(k >> 8)})
		}
		for k := uint64(0); k < 2000; k++ {
			n, ok := s.Get(p, k, dst)
			if !ok || !bytes.Equal(dst[:n], []byte{byte(k), byte(k >> 8)}) {
				t.Fatalf("%v: key %d round-trip failed (%v, %q)", placement, k, ok, dst[:n])
			}
		}
		if err := s.checkLRU(); err != nil {
			t.Fatalf("%v: %v", placement, err)
		}
	}
}

func TestShardedKeysSpread(t *testing.T) {
	topo := numa.New(4, 8)
	s := newShardedStore(topo, 8, 1<<14, HashMod)
	p := topo.Proc(0)
	for k := uint64(0); k < 4000; k++ {
		s.Set(p, k, []byte("v"))
	}
	for i, sh := range s.shards {
		n := sh.Len(p)
		// 4000 keys over 8 shards: expect ~500 per shard; an empty or
		// wildly overloaded shard means routing is broken.
		if n < 200 || n > 1000 {
			t.Errorf("shard %d holds %d of 4000 keys, expected a fair split", i, n)
		}
	}
}

func TestTotalCapacitySplit(t *testing.T) {
	topo := numa.New(4, 8)
	const capacity = 64
	s := newShardedStore(topo, 8, capacity, HashMod)
	if got := s.Capacity(); got != capacity {
		t.Fatalf("Capacity() = %d, want %d", got, capacity)
	}
	p := topo.Proc(0)
	for k := uint64(0); k < 2000; k++ {
		s.Set(p, k, []byte("v"))
	}
	if got := s.Len(p); got > capacity {
		t.Fatalf("Len = %d exceeds total capacity %d", got, capacity)
	}
	for i, sh := range s.shards {
		if n := sh.Len(p); n > sh.Capacity() {
			t.Errorf("shard %d: %d items over per-shard capacity %d", i, n, sh.Capacity())
		}
	}
	if err := s.checkLRU(); err != nil {
		t.Fatal(err)
	}
}

func TestPerShardLRUEviction(t *testing.T) {
	// Overflow exactly one shard: only that shard evicts, and its own
	// LRU order decides the victims.
	topo := numa.New(4, 8)
	s := newShardedStore(topo, 4, 4*3, HashMod) // 3 items per shard
	p := topo.Proc(0)
	target := s.shardIndex(p, 0)
	var keys []uint64
	for k := uint64(0); len(keys) < 4; k++ {
		if s.shardIndex(p, k) == target {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:3] {
		s.Set(p, k, []byte("v"))
	}
	// Touch keys[0] so keys[1] is the victim when keys[3] arrives.
	if _, ok := s.Get(p, keys[0], make([]byte, 4)); !ok {
		t.Fatal("warm get failed")
	}
	s.Set(p, keys[3], []byte("v"))
	if _, ok := s.Get(p, keys[1], make([]byte, 4)); ok {
		t.Fatal("LRU victim still present in its shard")
	}
	for _, k := range []uint64{keys[0], keys[2], keys[3]} {
		if _, ok := s.Get(p, k, make([]byte, 4)); !ok {
			t.Fatalf("key %d wrongly evicted", k)
		}
	}
	for i := range s.shards {
		st := s.shards[i].Snapshot()
		if i == target && st.Evictions != 1 {
			t.Errorf("target shard evicted %d times, want 1", st.Evictions)
		}
		if i != target && st.Evictions != 0 {
			t.Errorf("uninvolved shard %d evicted %d times", i, st.Evictions)
		}
	}
}

func TestCrossShardStatsAggregation(t *testing.T) {
	topo := numa.New(4, 8)
	s := newShardedStore(topo, 8, 1<<14, HashMod)
	dst := make([]byte, 8)
	for id := 0; id < 8; id++ {
		p := topo.Proc(id)
		for k := uint64(0); k < 300; k++ {
			s.Set(p, k, []byte("v"))
			s.Get(p, k, dst)
			s.Get(p, k+1_000_000, dst) // guaranteed miss
		}
	}
	var want Stats
	for i := 0; i < s.NumShards(); i++ {
		want.Add(s.shards[i].Snapshot())
	}
	got := s.Snapshot()
	if got != want {
		t.Fatalf("Snapshot %+v != shard sum %+v", got, want)
	}
	if got.Gets != 8*300*2 || got.Sets != 8*300 {
		t.Fatalf("op counts wrong: %+v", got)
	}
	if got.Misses != 8*300 {
		t.Fatalf("Misses = %d, want %d", got.Misses, 8*300)
	}
}

func TestClusterAffineRoutesHome(t *testing.T) {
	topo := numa.New(4, 8)
	s := newShardedStore(topo, 8, 1<<14, ClusterAffine)
	for id := 0; id < 8; id++ {
		p := topo.Proc(id)
		for k := uint64(0); k < 500; k++ {
			if idx := s.shardIndex(p, k); s.homes[idx] != p.Cluster() {
				t.Fatalf("proc %d (cluster %d): key %d routed to shard %d homed on %d",
					id, p.Cluster(), k, idx, s.homes[idx])
			}
			if !s.IsLocal(p, k) {
				t.Fatalf("IsLocal false under affine routing")
			}
		}
	}
	// Per-cluster views: a key set from cluster 0 is invisible to
	// cluster 1 (its shard group differs).
	p0, p1 := topo.Proc(0), topo.Proc(1)
	s.Set(p0, 42, []byte("v"))
	if _, ok := s.Get(p1, 42, make([]byte, 4)); ok {
		t.Fatal("cluster 1 read a key homed on cluster 0's shards")
	}
	if _, ok := s.Get(p0, 42, make([]byte, 4)); !ok {
		t.Fatal("cluster 0 lost its own key")
	}
}

func TestClusterAffineFallbackWhenFewShards(t *testing.T) {
	// 2 shards over 4 clusters: clusters 2 and 3 have no home shard
	// and fall back to global hash routing; operations still work.
	topo := numa.New(4, 8)
	s := newShardedStore(topo, 2, 1<<10, ClusterAffine)
	if s.HasLocalShard(topo.Proc(2)) {
		t.Fatal("cluster 2 reported a home shard with only 2 shards")
	}
	if !s.HasLocalShard(topo.Proc(0)) {
		t.Fatal("cluster 0 lost its home shard")
	}
	p2 := topo.Proc(2) // cluster 2
	dst := make([]byte, 8)
	for k := uint64(0); k < 200; k++ {
		s.Set(p2, k, []byte{byte(k)})
	}
	for k := uint64(0); k < 200; k++ {
		if n, ok := s.Get(p2, k, dst); !ok || dst[:n][0] != byte(k) {
			t.Fatalf("fallback routing lost key %d", k)
		}
	}
}

func TestHashModIsRequesterIndependent(t *testing.T) {
	topo := numa.New(4, 8)
	s := newShardedStore(topo, 8, 1<<14, HashMod)
	for k := uint64(0); k < 500; k++ {
		want := s.shardIndex(topo.Proc(0), k)
		for id := 1; id < 8; id++ {
			if got := s.shardIndex(topo.Proc(id), k); got != want {
				t.Fatalf("key %d routes to shard %d for proc 0 but %d for proc %d",
					k, want, got, id)
			}
		}
	}
}

func TestShardedConcurrentOps(t *testing.T) {
	topo := numa.New(4, 16)
	for _, placement := range []Placement{HashMod, ClusterAffine} {
		s := New(Config{
			Topo:      topo,
			Locking:   FromMutex(func() locks.Mutex { return locks.NewMCS(topo) }),
			Shards:    8,
			Placement: placement,
			Buckets:   512, Capacity: 1024,
			Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
			ItemLocalNs: 1, ItemRemoteNs: 1,
		})
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				p := topo.Proc(id)
				dst := make([]byte, 16)
				val := []byte("sharded-value")
				for k := 0; k < 600; k++ {
					key := uint64(k % 250)
					switch k % 3 {
					case 0:
						s.Set(p, key, val)
					case 1:
						s.Get(p, key, dst)
					case 2:
						if k%30 == 2 {
							s.Delete(p, key)
						} else {
							s.Get(p, key, dst)
						}
					}
				}
			}(i)
		}
		wg.Wait()
		if err := s.checkLRU(); err != nil {
			t.Fatalf("%v: %v", placement, err)
		}
		st := s.Snapshot()
		if st.Gets == 0 || st.Sets == 0 {
			t.Fatalf("%v: stats look wrong: %+v", placement, st)
		}
	}
}

func TestShardedConfigValidation(t *testing.T) {
	topo := numa.New(4, 8)
	// Shards defaults to one.
	s := New(Config{Topo: topo, Locking: FromMutex(func() locks.Mutex { return locks.NewPthread() })})
	if s.NumShards() != 1 {
		t.Fatalf("default shards = %d, want 1", s.NumShards())
	}
	if !s.IsLocal(topo.Proc(3), 99) {
		t.Error("single-shard store not degenerately local")
	}
}
