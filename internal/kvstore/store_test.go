package kvstore

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/locks"
	"repro/internal/numa"
)

func newShardedStore(topo *numa.Topology, shards, capacity int) *Store {
	return New(Config{
		Topo:        topo,
		Locking:     FromMutex(func() locks.Mutex { return locks.NewPthread() }),
		Shards:      shards,
		Buckets:     256,
		Capacity:    capacity,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
}

func TestShardedRoundTrip(t *testing.T) {
	topo := numa.New(4, 8)
	s := newShardedStore(topo, 8, 1<<14)
	p := topo.Proc(0)
	dst := make([]byte, 16)
	for k := uint64(0); k < 2000; k++ {
		s.Set(p, k, []byte{byte(k), byte(k >> 8)})
	}
	for k := uint64(0); k < 2000; k++ {
		n, ok := s.Get(p, k, dst)
		if !ok || !bytes.Equal(dst[:n], []byte{byte(k), byte(k >> 8)}) {
			t.Fatalf("key %d round-trip failed (%v, %q)", k, ok, dst[:n])
		}
	}
	if err := s.checkLRU(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedKeysSpread(t *testing.T) {
	topo := numa.New(4, 8)
	s := newShardedStore(topo, 8, 1<<14)
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
	s := newShardedStore(topo, 8, capacity)
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
	s := newShardedStore(topo, 4, 4*3) // 3 items per shard
	p := topo.Proc(0)
	target := s.shardIndex(0)
	var keys []uint64
	for k := uint64(0); len(keys) < 4; k++ {
		if s.shardIndex(k) == target {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:3] {
		s.Set(p, k, []byte("v"))
	}
	// Hit keys[0] so keys[1] is the victim when keys[3] arrives.
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
	s := newShardedStore(topo, 8, 1<<14)
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
	for _, sh := range s.shards {
		want.Add(sh.Snapshot())
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

// TestHashModIsRequesterIndependent is the store-level statement of
// one keyspace: whichever proc, on whichever cluster, writes a key
// last, every proc of every cluster reads that write.
func TestHashModIsRequesterIndependent(t *testing.T) {
	topo := numa.New(4, 8)
	s := newShardedStore(topo, 8, 1<<14)
	dst := make([]byte, 8)
	for k := uint64(0); k < 500; k++ {
		for id := 0; id < 8; id++ {
			s.Set(topo.Proc(id), k, []byte{byte(k), byte(id)})
		}
		last := byte(k % 8)
		s.Set(topo.Proc(int(last)), k, []byte{byte(k), last})
		for id := 0; id < 8; id++ {
			n, ok := s.Get(topo.Proc(id), k, dst)
			if !ok || !bytes.Equal(dst[:n], []byte{byte(k), last}) {
				t.Fatalf("key %d: proc %d (cluster %d) read (%q, %v), want the last write from proc %d",
					k, id, topo.Proc(id).Cluster(), dst[:n], ok, last)
			}
		}
	}
	if got := s.Len(topo.Proc(0)); got != 500 {
		t.Fatalf("Len = %d, want 500: some key lives in more than one shard", got)
	}
}

func TestShardedConcurrentOps(t *testing.T) {
	topo := numa.New(4, 16)
	s := New(Config{
		Topo:    topo,
		Locking: FromMutex(func() locks.Mutex { return locks.NewMCS(topo) }),
		Shards:  8,
		Buckets: 512, Capacity: 1024,
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
		t.Fatal(err)
	}
	st := s.Snapshot()
	if st.Gets == 0 || st.Sets == 0 {
		t.Fatalf("stats look wrong: %+v", st)
	}
}

func TestShardedConfigValidation(t *testing.T) {
	topo := numa.New(4, 8)
	// Shards defaults to one.
	s := New(Config{Topo: topo, Locking: FromMutex(func() locks.Mutex { return locks.NewPthread() })})
	if n := len(s.shards); n != 1 {
		t.Fatalf("default shards = %d, want 1", n)
	}
}

// TestNamedItemsMatchTheirName pins MSetNamed/MGetNamed, under an
// exclusive lock and under a reader-writer lock's shared read path: a
// named get hits only the name the item was stored under and counts
// anything else as a miss, the unnamed reads see the value alone, and
// an unnamed set clears the name.
func TestNamedItemsMatchTheirName(t *testing.T) {
	topo := numa.New(2, 4)
	sources := map[string]LockSource{
		"pthread": FromMutex(func() locks.Mutex { return locks.NewPthread() }),
		"rw-mcs":  FromRW(func() locks.RWMutex { return locks.NewRWPerCluster(topo, locks.NewMCS(topo)) }),
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Topo: topo, Shards: 2, Locking: src})
			p := topo.Proc(0)
			const key = 42
			keys := []uint64{key, key}
			lens, found := make([]int, 2), make([]bool, 2)
			dsts := [][]byte{make([]byte, 16), make([]byte, 16)}
			getNamed := func(a, b string) {
				s.MGetNamed(p, keys, [][]byte{[]byte(a), []byte(b)}, dsts, lens, found)
			}

			s.MSetNamed(p, keys[:1], [][]byte{[]byte("alpha")}, [][]byte{[]byte("v1")})
			getNamed("alpha", "beta")
			if !found[0] || string(dsts[0][:lens[0]]) != "v1" || found[1] {
				t.Fatalf("named get: found %v, first %q; want only alpha to hit v1", found, dsts[0][:lens[0]])
			}
			if st := s.Snapshot(); st.Hits != 1 || st.Misses != 1 {
				t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
			}
			if n, ok := s.Get(p, key, dsts[0]); !ok || string(dsts[0][:n]) != "v1" {
				t.Fatalf("unnamed Get = %q, %v; want the value alone", dsts[0][:n], ok)
			}

			// An unnamed set leaves no name to match.
			s.Set(p, key, []byte("v2"))
			getNamed("alpha", "")
			if found[0] || !found[1] || string(dsts[1][:lens[1]]) != "v2" {
				t.Fatalf("after an unnamed set: found %v; want only the empty name to hit v2", found)
			}
		})
	}
}
