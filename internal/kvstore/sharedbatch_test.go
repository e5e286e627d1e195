package kvstore

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/locks"
	"repro/internal/numa"
)

// countedRWStore builds a single-shard store over a genuine RW lock
// instrumented with separate exclusive/shared acquisition counters.
func countedRWStore(topo *numa.Topology, maxBatch int, excl, shared *atomic.Uint64) *Store {
	return New(Config{
		Topo: topo,
		Locking: FromRW(func() locks.RWMutex {
			return locks.CountRWAcquisitions(
				locks.NewRWPerCluster(topo, locks.NewMCS(topo)), excl, shared)
		}),
		MaxBatch: maxBatch,
		Buckets:  512,
		Capacity: 4096,
	})
}

func TestSharedMGetAcquisitionCount(t *testing.T) {
	// The acceptance criterion: a shard group of N hits under a genuine
	// reader-writer lock costs exactly ceil(N/MaxBatch) SHARED
	// acquisitions and zero exclusive ones — on the first read, which
	// sets every hit's reference bit, and on every read after it. The
	// bits are the hits' only recency work; nothing is deferred.
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	const n, batch = 18, 4
	var excl, shared atomic.Uint64
	s := countedRWStore(topo, batch, &excl, &shared)

	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = val(i)
	}
	s.MSet(p, keys, vals)

	dsts := make([][]byte, n)
	for i := range dsts {
		dsts[i] = make([]byte, 32)
	}
	lens := make([]int, n)
	found := make([]bool, n)
	const ceil = (n + batch - 1) / batch
	for round := 0; round < 3; round++ {
		e0, s0 := excl.Load(), shared.Load()
		s.MGet(p, keys, dsts, lens, found)
		if got := shared.Load() - s0; got != ceil {
			t.Errorf("round %d: shared MGet of %d keys took %d RLock acquisitions, want ceil(%d/%d)=%d", round, n, got, n, batch, ceil)
		}
		if got := excl.Load() - e0; got != 0 {
			t.Errorf("round %d: shared MGet took %d exclusive acquisitions, want 0", round, got)
		}
		for i := range keys {
			if !found[i] || !bytes.Equal(dsts[i][:lens[i]], vals[i]) {
				t.Fatalf("round %d key %d: got (%q,%v), want %q", round, keys[i], dsts[i][:lens[i]], found[i], vals[i])
			}
			if it := s.shards[0].find(keys[i]); it.ref.Load() == 0 {
				t.Fatalf("round %d key %d: hit left the reference bit clear", round, keys[i])
			}
		}
	}
}

func TestSharedMGetPerShardGroups(t *testing.T) {
	// Multi-shard stores pay ceil per GROUP: the counters sum across
	// shards, so total shared acquisitions are the sum of each group's
	// ceiling — and never more than shards * ceil(N/batch).
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	const shards, batch = 4, 4
	var excl, shared atomic.Uint64
	s := New(Config{
		Topo: topo,
		Locking: FromRW(func() locks.RWMutex {
			return locks.CountRWAcquisitions(
				locks.NewRWPerCluster(topo, locks.NewMCS(topo)), &excl, &shared)
		}),
		Shards:   shards,
		MaxBatch: batch,
		Buckets:  512,
		Capacity: 4096,
	})
	const n = 64
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = val(i)
	}
	s.MSet(p, keys, vals)

	lens := make([]int, n)
	found := make([]bool, n)
	s0 := shared.Load()
	s.MGet(p, keys, nil, lens, found)
	got := shared.Load() - s0

	// Compute the exact expectation from the store's own routing.
	want := uint64(0)
	_, start := s.route(p, keys)
	for si := 0; si < shards; si++ {
		want += uint64((start[si+1] - start[si] + batch - 1) / batch)
	}
	if got != want {
		t.Errorf("sharded shared MGet took %d RLock acquisitions, want %d (sum of per-group ceilings)", got, want)
	}
	for i := range keys {
		if !found[i] {
			t.Fatalf("key %d unanswered", keys[i])
		}
	}
}

func TestSharedMGetMatchesSequentialGets(t *testing.T) {
	// Sequential equivalence, duplicate keys included: a shared-mode
	// MGet must answer exactly what the same store's Gets answer, and
	// count statistics once per operation.
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	var excl, shared atomic.Uint64
	s := countedRWStore(topo, 5, &excl, &shared)

	const present = 40
	for i := 0; i < present; i++ {
		s.Set(p, uint64(i), val(i))
	}
	keys := make([]uint64, 0, 60)
	for i := 0; i < present; i++ {
		keys = append(keys, uint64(i))
	}
	keys = append(keys, keys[:10]...) // duplicates
	for i := 0; i < 10; i++ {         // misses
		keys = append(keys, uint64(10_000+i))
	}

	dsts := make([][]byte, len(keys))
	lens := make([]int, len(keys))
	found := make([]bool, len(keys))
	for i := range dsts {
		dsts[i] = make([]byte, 32)
		lens[i] = -1
	}
	before := s.Snapshot()
	s.MGet(p, keys, dsts, lens, found)
	after := s.Snapshot()

	dst := make([]byte, 32)
	for i, k := range keys {
		if lens[i] == -1 {
			t.Fatalf("key %d (index %d) never answered", k, i)
		}
		n, ok := s.Get(p, k, dst)
		if ok != found[i] || (ok && !bytes.Equal(dst[:n], dsts[i][:lens[i]])) {
			t.Fatalf("key %d: MGet (%q,%v) vs Get (%q,%v)", k, dsts[i][:lens[i]], found[i], dst[:n], ok)
		}
	}
	wantHits, wantMisses := uint64(present+10), uint64(10)
	if g := after.Gets - before.Gets; g != uint64(len(keys)) {
		t.Errorf("Gets counted %d, want %d (once per op)", g, len(keys))
	}
	if h := after.Hits - before.Hits; h != wantHits {
		t.Errorf("Hits counted %d, want %d", h, wantHits)
	}
	if m := after.Misses - before.Misses; m != wantMisses {
		t.Errorf("Misses counted %d, want %d", m, wantMisses)
	}
	if err := s.checkLRU(); err != nil {
		t.Fatal(err)
	}
}

func TestMGetExclusiveFallbackUnchanged(t *testing.T) {
	// When the shard lock is not a genuine RW lock — here an
	// RWFromMutex-adapted exclusive one — MGet keeps the exclusive batch
	// path: correct answers, hits that set reference bits, and
	// ceil(N/MaxBatch) acquisitions of the mutex, counted underneath the
	// adapter, where the adapter's RLock is the mutex's Lock.
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	const n, batch = 12, 4
	var acq atomic.Uint64
	s := New(Config{
		Topo: topo,
		Locking: FromRW(func() locks.RWMutex {
			return locks.RWFromMutex(locks.CountAcquisitions(locks.NewMCS(topo), &acq))
		}),
		MaxBatch: batch,
		Buckets:  256,
		Capacity: 1024,
	})
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = val(i)
	}
	s.MSet(p, keys, vals)
	lens := make([]int, n)
	found := make([]bool, n)
	a0 := acq.Load()
	s.MGet(p, keys, nil, lens, found)
	const ceil = (n + batch - 1) / batch
	if got := acq.Load() - a0; got != ceil {
		t.Errorf("exclusive-fallback MGet took %d acquisitions of the mutex, want %d", got, ceil)
	}
	for i := range keys {
		if !found[i] {
			t.Fatalf("key %d unanswered", keys[i])
		}
	}
	// An eviction-order probe: an exclusive hit sets the reference bit.
	tiny := New(Config{
		Topo:     topo,
		Locking:  FromMutex(func() locks.Mutex { return locks.NewMCS(topo) }),
		MaxBatch: 8,
		Buckets:  64,
		Capacity: 2,
	})
	dst := make([]byte, 4)
	tiny.Set(p, 1, []byte("a"))
	tiny.Set(p, 2, []byte("b"))
	tiny.MGet(p, []uint64{1}, nil, lens[:1], found[:1])
	tiny.Set(p, 3, []byte("c"))
	if _, ok := tiny.Get(p, 1, dst); !ok {
		t.Fatal("exclusive MGet hit did not set the reference bit")
	}
}

func TestSharedMGetConcurrentWithWriters(t *testing.T) {
	// Batched shared readers against exclusive writers: values must
	// never tear and shard invariants must hold. Runs under -race in
	// CI, which also checks the RLock chunk's happens-before edges.
	topo := numa.New(4, 12)
	s := New(Config{
		Topo:     topo,
		Locking:  FromRW(func() locks.RWMutex { return locks.NewRWPerCluster(topo, locks.NewMCS(topo)) }),
		Shards:   2,
		MaxBatch: 4,
		Buckets:  256,
		Capacity: 1024,
	})
	const keyspace = 64
	val := func(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }
	seed := topo.Proc(0)
	for k := uint64(0); k < keyspace; k++ {
		s.Set(seed, k, val(byte(k)))
	}

	var bad atomic.Int64
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(p *numa.Proc) {
			defer readers.Done()
			const b = 8
			keys := make([]uint64, b)
			dsts := make([][]byte, b)
			for i := range dsts {
				dsts[i] = make([]byte, 32)
			}
			lens := make([]int, b)
			found := make([]bool, b)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range keys {
					keys[i] = uint64(p.RandN(keyspace))
				}
				s.MGet(p, keys, dsts, lens, found)
				for i := range keys {
					if !found[i] {
						continue
					}
					for _, c := range dsts[i][1:lens[i]] {
						if c != dsts[i][0] {
							bad.Add(1)
							break
						}
					}
				}
			}
		}(topo.Proc(r))
	}
	for w := 8; w < 12; w++ {
		writers.Add(1)
		go func(p *numa.Proc) {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				k := uint64(p.RandN(keyspace))
				switch p.RandN(10) {
				case 0:
					s.Delete(p, k)
				default:
					s.Set(p, k, val(byte(p.RandN(256))))
				}
			}
		}(topo.Proc(w))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if bad.Load() != 0 {
		t.Fatalf("batched shared readers observed %d torn values", bad.Load())
	}
	if err := s.checkLRU(); err != nil {
		t.Fatal(err)
	}
}
