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

// newIndexStore builds a small store with explicit index- and
// value-memory modes for layout tests.
func newIndexStore(topo *numa.Topology, shards, capacity int, vm ValueMemory, im IndexMemory) *Store {
	cfg := Config{
		Topo:        topo,
		Buckets:     64 * shards,
		Capacity:    capacity,
		Shards:      shards,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
		ValueMemory: vm,
		IndexMemory: im,
	}
	if vm == ValueArena {
		cfg.ArenaBytes = (256 << 10) * shards
	}
	if shards > 1 {
		cfg.Locking = FromMutex(func() locks.Mutex { return locks.NewPthread() })
	} else {
		cfg.Locking = FromLock(locks.NewPthread())
	}
	return New(cfg)
}

// TestCompactPointerEquivalence drives byte-identical operation
// streams — singles and batched MGet/MSet/MDelete — through a pointer
// store and a compact store and requires identical observable behavior
// down to the full statistics, MetaMisses included: the compact twins
// issue the same cachesim charges, recycle slots in the same LIFO
// order and evict the same victims, so every counter must match
// exactly. The pointer half is the pre-compact store unchanged, which
// makes this the proof that IndexPointer configs are byte for byte
// the old code and IndexCompact is observationally the same store.
func TestCompactPointerEquivalence(t *testing.T) {
	topo := numa.New(4, 16)
	for _, vm := range []ValueMemory{ValueHeap, ValueArena} {
		t.Run(vm.String(), func(t *testing.T) {
			ptr := newIndexStore(topo, 1, 150, vm, IndexPointer)
			cmp := newIndexStore(topo, 1, 150, vm, IndexCompact)
			p := topo.Proc(0)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 10_000; i++ {
				key := uint64(rng.Intn(300))
				switch rng.Intn(10) {
				case 0:
					pOK := ptr.Delete(p, key)
					cOK := cmp.Delete(p, key)
					if pOK != cOK {
						t.Fatalf("op %d: Delete(%d) = %v (pointer) vs %v (compact)", i, key, pOK, cOK)
					}
				case 1, 2:
					pDst, cDst := make([]byte, 600), make([]byte, 600)
					pN, pOK := ptr.Get(p, key, pDst)
					cN, cOK := cmp.Get(p, key, cDst)
					if pOK != cOK || pN != cN || !bytes.Equal(pDst[:pN], cDst[:cN]) {
						t.Fatalf("op %d: Get(%d) diverged: %q,%v vs %q,%v", i, key, pDst[:pN], pOK, cDst[:cN], cOK)
					}
				case 3: // batched reads cover the group paths
					keys := []uint64{key, key + 1, key + 2, key}
					pLens, cLens := make([]int, 4), make([]int, 4)
					pFound, cFound := make([]bool, 4), make([]bool, 4)
					pDsts := [][]byte{make([]byte, 600), make([]byte, 600), make([]byte, 600), make([]byte, 600)}
					cDsts := [][]byte{make([]byte, 600), make([]byte, 600), make([]byte, 600), make([]byte, 600)}
					ptr.MGet(p, keys, pDsts, pLens, pFound)
					cmp.MGet(p, keys, cDsts, cLens, cFound)
					for j := range keys {
						if pFound[j] != cFound[j] || pLens[j] != cLens[j] ||
							!bytes.Equal(pDsts[j][:pLens[j]], cDsts[j][:cLens[j]]) {
							t.Fatalf("op %d: MGet[%d](%d) diverged", i, j, keys[j])
						}
					}
				case 4: // batched writes, duplicate key resolves last-wins
					v1 := make([]byte, rng.Intn(256))
					v2 := make([]byte, rng.Intn(256))
					for j := range v1 {
						v1[j] = byte(rng.Int())
					}
					for j := range v2 {
						v2[j] = byte(rng.Int())
					}
					keys := []uint64{key, key + 7, key}
					vals := [][]byte{v1, v2, v2}
					ptr.MSet(p, keys, vals)
					cmp.MSet(p, keys, vals)
				case 5:
					keys := []uint64{key, key + 3}
					if pN, cN := ptr.MDelete(p, keys), cmp.MDelete(p, keys); pN != cN {
						t.Fatalf("op %d: MDelete = %d vs %d", i, pN, cN)
					}
				default:
					val := make([]byte, rng.Intn(512))
					for j := range val {
						val[j] = byte(rng.Int())
					}
					ptr.Set(p, key, val)
					cmp.Set(p, key, val)
				}
			}
			if ptr.Len(p) != cmp.Len(p) {
				t.Fatalf("Len diverged: %d vs %d", ptr.Len(p), cmp.Len(p))
			}
			pSt, cSt := ptr.Snapshot(), cmp.Snapshot()
			if pSt != cSt {
				t.Fatalf("stats diverged:\npointer %+v\ncompact %+v", pSt, cSt)
			}
			if err := cmp.CompactCheck(); err != nil {
				t.Fatal(err)
			}
			if err := cmp.ArenaCheck(p); err != nil {
				t.Fatal(err)
			}
			if err := ptr.ArenaCheck(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCompactSharedReadEquivalence repeats the equivalence check under
// a genuine reader-writer lock, so the compact dispatch in the
// shared-mode paths (readValue under RLock, the TouchEvery deferred
// bump, mgetShared chunks) is proven against the pointer layout too.
func TestCompactSharedReadEquivalence(t *testing.T) {
	topo := numa.New(4, 16)
	mk := func(im IndexMemory) *Store {
		return New(Config{
			Topo:    topo,
			Locking: FromRW(func() locks.RWMutex { return locks.NewRWPerCluster(topo, locks.NewPthread()) }),
			Shards:  1, Buckets: 64, Capacity: 150,
			Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
			ItemLocalNs: 1, ItemRemoteNs: 1,
			IndexMemory: im,
		})
	}
	ptr, cmp := mk(IndexPointer), mk(IndexCompact)
	p := topo.Proc(0)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10_000; i++ {
		key := uint64(rng.Intn(300))
		switch rng.Intn(8) {
		case 0:
			if pOK, cOK := ptr.Delete(p, key), cmp.Delete(p, key); pOK != cOK {
				t.Fatalf("op %d: Delete(%d) diverged", i, key)
			}
		case 1, 2, 3, 4: // read-heavy: the shared path is the one under test
			pDst, cDst := make([]byte, 600), make([]byte, 600)
			pN, pOK := ptr.Get(p, key, pDst)
			cN, cOK := cmp.Get(p, key, cDst)
			if pOK != cOK || pN != cN || !bytes.Equal(pDst[:pN], cDst[:cN]) {
				t.Fatalf("op %d: Get(%d) diverged", i, key)
			}
		case 5:
			keys := []uint64{key, key + 1, key + 2}
			pLens, cLens := make([]int, 3), make([]int, 3)
			pFound, cFound := make([]bool, 3), make([]bool, 3)
			ptr.MGet(p, keys, nil, pLens, pFound)
			cmp.MGet(p, keys, nil, cLens, cFound)
			for j := range keys {
				if pFound[j] != cFound[j] || pLens[j] != cLens[j] {
					t.Fatalf("op %d: MGet[%d] diverged", i, j)
				}
			}
		default:
			val := make([]byte, rng.Intn(256))
			for j := range val {
				val[j] = byte(rng.Int())
			}
			ptr.Set(p, key, val)
			cmp.Set(p, key, val)
		}
	}
	pSt, cSt := ptr.Snapshot(), cmp.Snapshot()
	if pSt != cSt {
		t.Fatalf("stats diverged:\npointer %+v\ncompact %+v", pSt, cSt)
	}
	if err := cmp.CompactCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactProperty is the randomized slab-lifecycle property test:
// 50k mixed operations (set, overwrite, get, delete, batched
// variants, with capacity pressure forcing evictions) against a
// reference map, in compact mode, across shard counts and both
// value-memory modes, ending with the slab accounting check — every
// ever-allocated slot is live or free (live + free == slab slots in
// use), and no LRU, free-list or hash chain cycles.
func TestCompactProperty(t *testing.T) {
	topo := numa.New(4, 16)
	for _, shards := range []int{1, 4} {
		for _, vm := range []ValueMemory{ValueHeap, ValueArena} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, vm), func(t *testing.T) {
				s := newIndexStore(topo, shards, 200, vm, IndexCompact)
				p := topo.Proc(0)
				rng := rand.New(rand.NewSource(int64(shards)*100 + int64(vm)))
				ref := map[uint64][]byte{} // may hold evicted keys; values checked only on hit
				for i := 0; i < 50_000; i++ {
					key := uint64(rng.Intn(400))
					switch rng.Intn(12) {
					case 0, 1: // delete
						s.Delete(p, key)
						delete(ref, key)
					case 2: // batched delete
						keys := []uint64{key, key + 5, key + 9}
						s.MDelete(p, keys)
						for _, k := range keys {
							delete(ref, k)
						}
					case 3, 4, 5: // get, verifying bytes on hit
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
					case 6: // batched get
						keys := []uint64{key, key + 2, key + 4}
						dsts := [][]byte{make([]byte, 600), make([]byte, 600), make([]byte, 600)}
						lens := make([]int, 3)
						found := make([]bool, 3)
						s.MGet(p, keys, dsts, lens, found)
						for j, k := range keys {
							if found[j] {
								want, tracked := ref[k]
								if !tracked {
									t.Fatalf("MGet hit on key %d the model never wrote", k)
								}
								if !bytes.Equal(dsts[j][:lens[j]], want) {
									t.Fatalf("MGet key %d mismatch", k)
								}
							}
						}
					case 7: // batched set
						keys := make([]uint64, 3)
						vals := make([][]byte, 3)
						for j := range keys {
							keys[j] = uint64(rng.Intn(400))
							vals[j] = make([]byte, rng.Intn(300))
							for b := range vals[j] {
								vals[j][b] = byte(rng.Int())
							}
						}
						s.MSet(p, keys, vals)
						for j, k := range keys {
							ref[k] = vals[j]
						}
					default: // set with sizes spanning empty to ~500B
						val := make([]byte, rng.Intn(500))
						for j := range val {
							val[j] = byte(rng.Int())
						}
						s.Set(p, key, val)
						ref[key] = val
					}
				}
				if err := s.CompactCheck(); err != nil {
					t.Fatal(err)
				}
				if err := s.checkLRU(); err != nil {
					t.Fatal(err)
				}
				if err := s.ArenaCheck(p); err != nil {
					t.Fatal(err)
				}
				// The reference map over-approximates (evictions), so
				// the store can never hold more than the model.
				if n := s.Len(p); n > len(ref) {
					t.Fatalf("store holds %d keys, model only %d", n, len(ref))
				}
			})
		}
	}
}

// TestCompactSlabGrowth pushes a shard past several chunk boundaries
// (slabChunkSize items per chunk) and verifies chunked growth keeps
// every index link valid: all keys remain retrievable and the slab
// accounting balances.
func TestCompactSlabGrowth(t *testing.T) {
	topo := numa.New(4, 16)
	const n = 2*slabChunkSize + 100
	s := newIndexStore(topo, 1, n+10, ValueHeap, IndexCompact)
	p := topo.Proc(0)
	val := make([]byte, 8)
	for k := uint64(0); k < n; k++ {
		val[0] = byte(k)
		s.Set(p, k, val)
	}
	if got := s.Len(p); got != n {
		t.Fatalf("Len = %d want %d", got, n)
	}
	chunks := 0
	for i := range s.shards[0].compact.chunks {
		if s.shards[0].compact.chunks[i].Load() != nil {
			chunks++
		}
	}
	if chunks != 3 {
		t.Fatalf("slab has %d chunks, want 3 for %d items", chunks, n)
	}
	dst := make([]byte, 8)
	for k := uint64(0); k < n; k += 997 { // sample across all chunks
		if m, ok := s.Get(p, k, dst); !ok || m != len(val) || dst[0] != byte(k) {
			t.Fatalf("key %d lost after growth: %d,%v,%x", k, m, ok, dst[0])
		}
	}
	if err := s.CompactCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactChunkTableBound fills a shard whose capacity ends one slot
// short of a chunk boundary: the insert that trips the first eviction
// holds capacity+1 items and takes the first slot of the next chunk, the
// highest index the fixed-length chunk table must cover.
func TestCompactChunkTableBound(t *testing.T) {
	topo := numa.New(2, 2)
	s := newIndexStore(topo, 1, slabChunkSize-1, ValueHeap, IndexCompact)
	p := topo.Proc(0)
	for k := uint64(0); k < slabChunkSize+50; k++ {
		s.Set(p, k, []byte{byte(k)})
	}
	if got := s.Len(p); got != slabChunkSize-1 {
		t.Fatalf("Len = %d want %d", got, slabChunkSize-1)
	}
	if err := s.CompactCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactRace hammers the compact layout under the race detector
// across the three exclusion seams (direct lock, reader-writer with
// shared Gets, combining executor), both value-memory modes riding
// along. Slab growth, free-list recycling and the heap-value side
// table all mutate under the shard's exclusion; any missed guard
// surfaces as a race on a chunk or the side table.
func TestCompactRace(t *testing.T) {
	topo := numa.New(2, 8)
	base := func(vm ValueMemory) Config {
		cfg := Config{
			Topo:   topo,
			Shards: 2, Buckets: 128, Capacity: 300,
			Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
			ItemLocalNs: 1, ItemRemoteNs: 1,
			ValueMemory: vm,
			IndexMemory: IndexCompact,
		}
		if vm == ValueArena {
			cfg.ArenaBytes = 1 << 20
		}
		return cfg
	}
	build := map[string]func() *Store{
		"lock": func() *Store {
			cfg := base(ValueHeap)
			cfg.Locking = FromMutex(func() locks.Mutex { return locks.NewPthread() })
			return New(cfg)
		},
		"rw": func() *Store {
			cfg := base(ValueHeap)
			cfg.Locking = FromRW(func() locks.RWMutex { return locks.NewRWPerCluster(topo, locks.NewPthread()) })
			return New(cfg)
		},
		"exec": func() *Store {
			cfg := base(ValueArena)
			cfg.Locking = FromExec(func() locks.Executor { return locks.NewCombining(topo, locks.NewPthread()) })
			return New(cfg)
		},
		"rw-arena": func() *Store {
			cfg := base(ValueArena)
			cfg.Locking = FromRW(func() locks.RWMutex { return locks.NewRWPerCluster(topo, locks.NewPthread()) })
			return New(cfg)
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
			if err := s.CompactCheck(); err != nil {
				t.Fatal(err)
			}
			if err := s.ArenaCheck(p); err != nil {
				t.Fatal(err)
			}
		})
	}
}
