package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/locks"
	"repro/internal/numa"
)

// newArenaStore builds a small ValueArena store for lifecycle tests.
func newArenaStore(topo *numa.Topology, shards, capacity, arenaBytes int) *Store {
	cfg := Config{
		Topo:        topo,
		Buckets:     64 * shards,
		Capacity:    capacity,
		Shards:      shards,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
		ValueMemory: ValueArena,
		ArenaBytes:  arenaBytes,
	}
	if shards > 1 {
		cfg.Locking = FromMutex(func() locks.Mutex { return locks.NewPthread() })
	} else {
		cfg.Locking = FromLock(locks.NewPthread())
	}
	return New(cfg)
}

func TestArenaRoundTrip(t *testing.T) {
	topo := numa.New(4, 16)
	s := newArenaStore(topo, 1, 100, 1<<20)
	p := topo.Proc(0)
	val := []byte("arena-backed value")
	s.Set(p, 42, val)
	dst := make([]byte, 64)
	n, ok := s.Get(p, 42, dst)
	if !ok || !bytes.Equal(dst[:n], val) {
		t.Fatalf("Get = %q,%v want %q", dst[:n], ok, val)
	}
	if st, ok := s.ArenaSnapshot(); !ok || st.Mallocs != 1 {
		t.Fatalf("arena snapshot = %+v,%v want 1 malloc", st, ok)
	}
	if err := s.ArenaCheck(p); err != nil {
		t.Fatal(err)
	}
}

// TestArenaChurnProperty is the randomized lifecycle property test:
// a long populate/overwrite/evict/delete churn with varying value
// sizes must end with every shard arena Fsck-clean and zero leaked or
// double-freed blocks, and every surviving value byte-correct.
func TestArenaChurnProperty(t *testing.T) {
	topo := numa.New(4, 16)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Capacity well below the key range so eviction churns, and
			// a small arena so reclamation (and the deferred free list)
			// is genuinely exercised.
			s := newArenaStore(topo, shards, 200, 256<<10)
			p := topo.Proc(0)
			rng := rand.New(rand.NewSource(1))
			ref := map[uint64][]byte{} // may hold evicted keys; values checked only on hit
			for i := 0; i < 20_000; i++ {
				key := uint64(rng.Intn(400))
				switch rng.Intn(10) {
				case 0, 1: // delete
					s.Delete(p, key)
					delete(ref, key)
				case 2, 3, 4: // get, verifying bytes on hit
					dst := make([]byte, 600)
					n, ok := s.Get(p, key, dst)
					if ok {
						want, tracked := ref[key]
						if !tracked {
							t.Fatalf("hit on key %d the model never wrote", key)
						}
						if !bytes.Equal(dst[:n], want) {
							t.Fatalf("key %d = %q, want %q", key, dst[:n], want)
						}
					}
				default: // set with a size that varies by an order of magnitude
					val := make([]byte, 1+rng.Intn(500))
					for j := range val {
						val[j] = byte(rng.Int())
					}
					s.Set(p, key, val)
					ref[key] = val
				}
			}
			if err := s.ArenaCheck(p); err != nil {
				t.Fatal(err)
			}
			if err := s.checkLRU(); err != nil {
				t.Fatal(err)
			}
			// Flush + Fsck passed; additionally prove the allocator's
			// own books balance: blocks out == blocks back + live.
			st, ok := s.ArenaSnapshot()
			if !ok {
				t.Fatal("no arena snapshot from an arena store")
			}
			live := 0
			for _, sh := range s.shards {
				live += sh.arena.LiveBlocks()
			}
			if int(st.Mallocs-st.Frees) != live {
				t.Fatalf("mallocs %d - frees %d != %d live blocks", st.Mallocs, st.Frees, live)
			}
		})
	}
}

// TestArenaHeapEquivalence drives byte-identical operation streams
// through a heap store and an arena store and requires identical
// observable behavior: every Get's bytes, every operation's outcome,
// and the full statistics (arena spills aside). Heap mode's half of
// the pair is exactly the pre-arena store, so this doubles as the
// proof that ValueHeap configs are unchanged.
func TestArenaHeapEquivalence(t *testing.T) {
	topo := numa.New(4, 16)
	heap, _ := newTestStore(150)
	arena := newArenaStore(topo, 1, 150, 4<<20)
	p := topo.Proc(0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		key := uint64(rng.Intn(300))
		switch rng.Intn(8) {
		case 0:
			hOK := heap.Delete(p, key)
			aOK := arena.Delete(p, key)
			if hOK != aOK {
				t.Fatalf("op %d: Delete(%d) = %v (heap) vs %v (arena)", i, key, hOK, aOK)
			}
		case 1, 2:
			hDst, aDst := make([]byte, 600), make([]byte, 600)
			hN, hOK := heap.Get(p, key, hDst)
			aN, aOK := arena.Get(p, key, aDst)
			if hOK != aOK || hN != aN || !bytes.Equal(hDst[:hN], aDst[:aN]) {
				t.Fatalf("op %d: Get(%d) diverged: %q,%v vs %q,%v", i, key, hDst[:hN], hOK, aDst[:aN], aOK)
			}
		default:
			val := make([]byte, rng.Intn(512))
			for j := range val {
				val[j] = byte(rng.Int())
			}
			heap.Set(p, key, val)
			arena.Set(p, key, val)
		}
	}
	if heap.Len(p) != arena.Len(p) {
		t.Fatalf("Len diverged: %d vs %d", heap.Len(p), arena.Len(p))
	}
	hSt, aSt := heap.Snapshot(), arena.Snapshot()
	hSt.MetaMisses, aSt.MetaMisses = 0, 0 // cachesim noise differs; not a behavior
	aSt.Spills = 0                        // arena-only counter
	if hSt != aSt {
		t.Fatalf("stats diverged:\nheap  %+v\narena %+v", hSt, aSt)
	}
	if err := arena.ArenaCheck(p); err != nil {
		t.Fatal(err)
	}
}

// TestArenaSpill exhausts a deliberately tiny arena and checks the
// graceful heap fallback: operations keep succeeding, spills are
// counted, and the arena still fscks clean.
func TestArenaSpill(t *testing.T) {
	topo := numa.New(4, 16)
	s := newArenaStore(topo, 1, 1000, 1<<12) // 4 KiB: a few values fit
	p := topo.Proc(0)
	val := make([]byte, 256)
	for k := uint64(0); k < 100; k++ {
		s.Set(p, k, val)
	}
	dst := make([]byte, 256)
	for k := uint64(0); k < 100; k++ {
		if n, ok := s.Get(p, k, dst); !ok || n != len(val) {
			t.Fatalf("key %d lost after spill: %d,%v", k, n, ok)
		}
	}
	if st := s.Snapshot(); st.Spills == 0 {
		t.Fatal("no spills counted on a 4 KiB arena holding 100 256-byte values")
	}
	if err := s.ArenaCheck(p); err != nil {
		t.Fatal(err)
	}
}

// TestArenaEmptyValues covers the zero-length edge: a fresh empty
// value takes no arena block, presents as found with length 0, and a
// shrink-to-empty keeps its block in place (an overwrite will reuse
// it) until delete returns it to the arena.
func TestArenaEmptyValues(t *testing.T) {
	topo := numa.New(4, 16)
	s := newArenaStore(topo, 1, 100, 1<<20)
	p := topo.Proc(0)
	s.Set(p, 1, []byte{})
	if n, ok := s.Get(p, 1, make([]byte, 8)); !ok || n != 0 {
		t.Fatalf("empty value Get = %d,%v want 0,true", n, ok)
	}
	if st, _ := s.ArenaSnapshot(); st.Mallocs != 0 {
		t.Fatalf("empty value took an arena block: %d mallocs", st.Mallocs)
	}
	s.Set(p, 1, []byte("grown"))
	s.Set(p, 1, []byte{}) // shrink-to-empty reuses the block in place
	if n, ok := s.Get(p, 1, make([]byte, 8)); !ok || n != 0 {
		t.Fatalf("shrunk value Get = %d,%v want 0,true", n, ok)
	}
	s.Delete(p, 1) // delete returns the retained block
	if err := s.ArenaCheck(p); err != nil {
		t.Fatal(err)
	}
	st, _ := s.ArenaSnapshot()
	if st.Mallocs != 1 || st.Frees != 1 {
		t.Fatalf("arena = %d mallocs / %d frees, want 1/1", st.Mallocs, st.Frees)
	}
}

// TestArenaRace hammers the arena path under the race detector:
// concurrent gets, sets and deletes across procs and shards, on both
// the direct-lock and executor seams, plus a shared-reads rw config.
// The arena inherits the shard's exclusion, so any missing guard shows
// up as a data race on arena bytes or the deferred free list.
func TestArenaRace(t *testing.T) {
	topo := numa.New(2, 8)
	build := map[string]func() *Store{
		"lock": func() *Store {
			return New(Config{
				Topo: topo, Locking: FromMutex(func() locks.Mutex { return locks.NewPthread() }),
				Shards: 2, Buckets: 128, Capacity: 300,
				Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
				ItemLocalNs: 1, ItemRemoteNs: 1,
				ValueMemory: ValueArena, ArenaBytes: 1 << 20,
			})
		},
		"rw": func() *Store {
			return New(Config{
				Topo: topo, Locking: FromRW(func() locks.RWMutex { return locks.NewRWPerCluster(topo, locks.NewPthread()) }),
				Shards: 2, Buckets: 128, Capacity: 300,
				Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
				ItemLocalNs: 1, ItemRemoteNs: 1,
				ValueMemory: ValueArena, ArenaBytes: 1 << 20,
			})
		},
		"exec": func() *Store {
			return New(Config{
				Topo: topo, Locking: FromExec(func() locks.Executor { return locks.NewCombining(topo, locks.NewPthread()) }),
				Shards: 2, Buckets: 128, Capacity: 300,
				Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
				ItemLocalNs: 1, ItemRemoteNs: 1,
				ValueMemory: ValueArena, ArenaBytes: 1 << 20,
			})
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			s := mk()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					p := topo.Proc(id)
					rng := rand.New(rand.NewSource(int64(id)))
					val := make([]byte, 512)
					dst := make([]byte, 512)
					for i := 0; i < 3000; i++ {
						key := uint64(rng.Intn(500))
						switch rng.Intn(8) {
						case 0:
							s.Delete(p, key)
						case 1, 2, 3:
							s.Get(p, key, dst)
						default:
							s.Set(p, key, val[:1+rng.Intn(512)])
						}
					}
				}(w)
			}
			wg.Wait()
			p := topo.Proc(0)
			if err := s.ArenaCheck(p); err != nil {
				t.Fatal(err)
			}
			if err := s.checkLRU(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
