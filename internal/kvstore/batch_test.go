package kvstore

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/spin"
)

func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func TestMSetAcquisitionAmortization(t *testing.T) {
	// An acquisition-counting lock is the instrument behind the
	// batching acceptance criterion: MSet of N same-shard keys takes
	// ceil(N/MaxBatch) acquisitions, strictly fewer than N.
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	const n, batch = 16, 4
	var acq atomic.Uint64
	lock := locks.CountAcquisitions(locks.NewPthread(), &acq)
	s := New(Config{Topo: topo, Locking: FromMutex(func() locks.Mutex { return lock }), MaxBatch: batch, Buckets: 64, Capacity: 64})

	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i)
		vals[i] = val(i)
	}
	before := acq.Load()
	s.MSet(p, keys, vals)
	acqN := acq.Load() - before

	ceil := uint64((n + batch - 1) / batch)
	if acqN < ceil || acqN >= n {
		t.Fatalf("MSet of %d same-shard keys took %d acquisitions, want in [%d,%d)", n, acqN, ceil, n)
	}
	if acqN != ceil {
		t.Errorf("MSet took %d acquisitions, want exactly ceil(%d/%d)=%d", acqN, n, batch, ceil)
	}

	// The matching reads amortize identically.
	dsts := make([][]byte, n)
	for i := range dsts {
		dsts[i] = make([]byte, 32)
	}
	lens := make([]int, n)
	found := make([]bool, n)
	before = acq.Load()
	s.MGet(p, keys, dsts, lens, found)
	if got := acq.Load() - before; got != ceil {
		t.Errorf("MGet took %d acquisitions, want %d", got, ceil)
	}
	for i := range keys {
		if !found[i] || !bytes.Equal(dsts[i][:lens[i]], vals[i]) {
			t.Fatalf("key %d: got (%q,%v), want %q", keys[i], dsts[i][:lens[i]], found[i], vals[i])
		}
	}

	// Sequential Sets pay one acquisition per key — the baseline the
	// batch APIs beat.
	before = acq.Load()
	for i := range keys {
		s.Set(p, keys[i], vals[i])
	}
	if got := acq.Load() - before; got != n {
		t.Fatalf("sequential Sets took %d acquisitions, want %d", got, n)
	}
}

// newBatchStore builds a store for batch-semantics tests; pthread
// locks keep the focus on routing and accounting.
func newBatchStore(topo *numa.Topology, shards, maxBatch int) *Store {
	return New(Config{
		Topo:     topo,
		Locking:  FromMutex(func() locks.Mutex { return locks.NewPthread() }),
		Shards:   shards,
		MaxBatch: maxBatch,
		Buckets:  512,
		Capacity: 4096,
	})
}

func TestMGetRoutingComplete(t *testing.T) {
	// Every key must be answered exactly once, at its own index, across
	// a store with many shards — including duplicate keys and misses.
	topo := numa.New(4, 8)
	p := topo.Proc(0)
	s := newBatchStore(topo, 8, 3)

	const present = 200
	keys := make([]uint64, 0, present+50)
	for i := 0; i < present; i++ {
		s.Set(p, uint64(i), val(i))
		keys = append(keys, uint64(i))
	}
	keys = append(keys, keys[:25]...) // duplicates
	for i := 0; i < 25; i++ {         // misses
		keys = append(keys, uint64(10_000+i))
	}

	dsts := make([][]byte, len(keys))
	lens := make([]int, len(keys))
	found := make([]bool, len(keys))
	for i := range dsts {
		dsts[i] = make([]byte, 32)
		lens[i] = -1 // sentinel: unanswered
	}
	s.MGet(p, keys, dsts, lens, found)

	for i, k := range keys {
		if lens[i] == -1 {
			t.Fatalf("key %d (index %d) was never answered", k, i)
		}
		if k < present {
			if !found[i] || !bytes.Equal(dsts[i][:lens[i]], val(int(k))) {
				t.Fatalf("key %d: got (%q,%v), want %q", k, dsts[i][:lens[i]], found[i], val(int(k)))
			}
		} else if found[i] || lens[i] != 0 {
			t.Fatalf("absent key %d reported (%d,%v)", k, lens[i], found[i])
		}
	}
}

func TestBatchStatsCountedOncePerOp(t *testing.T) {
	topo := numa.New(4, 8)
	p := topo.Proc(0)
	for _, shards := range []int{1, 4} {
		s := newBatchStore(topo, shards, 5)
		const n = 64
		keys := make([]uint64, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = uint64(i)
			vals[i] = val(i)
		}
		s.MSet(p, keys, vals)

		probe := append(append([]uint64{}, keys[:32]...), 9999, 9998) // 32 hits + 2 misses
		lens := make([]int, len(probe))
		found := make([]bool, len(probe))
		s.MGet(p, probe, nil, lens, found)

		st := s.Snapshot()
		if st.Sets != n {
			t.Errorf("%d shards: Sets = %d, want %d", shards, st.Sets, n)
		}
		if st.Gets != uint64(len(probe)) {
			t.Errorf("%d shards: Gets = %d, want %d", shards, st.Gets, len(probe))
		}
		if st.Hits != 32 || st.Misses != 2 {
			t.Errorf("%d shards: hits/misses = %d/%d, want 32/2", shards, st.Hits, st.Misses)
		}
	}
}

// lruOrder lists every shard's keys from head to tail.
func lruOrder(s *Store) [][]uint64 {
	out := make([][]uint64, len(s.shards))
	for i, sh := range s.shards {
		for it := sh.head; it != nil; it = it.next {
			out[i] = append(out[i], it.key.Load())
		}
	}
	return out
}

// TestBatchedStoreMatchesSequential: a batched run must be
// indistinguishable from the same operations issued one at a time —
// same answers, same contents, same list order, same statistics down to
// the cachesim migration count. Single-key calls never run route's warm
// pass and batch calls always do, so this is also the proof that the
// warm pass is not observable: on an empty store (nil bucket heads), on
// absent and duplicate keys, across shards and on one shard.
func TestBatchedStoreMatchesSequential(t *testing.T) {
	stores := []struct {
		name             string
		clusters, shards int
	}{
		{"one-shard", 2, 1},
		{"hashmod-4", 2, 4},
	}
	for _, sc := range stores {
		t.Run(sc.name, func(t *testing.T) {
			topo := numa.New(sc.clusters, 2*sc.clusters)
			mk := func() *Store {
				return New(Config{
					Topo:     topo,
					Locking:  FromMutex(func() locks.Mutex { return locks.NewPthread() }),
					Shards:   sc.shards,
					MaxBatch: 4,
					Buckets:  64,
					Capacity: 48, // the 60-key range below evicts
				})
			}
			batched, sequential := mk(), mk()
			same := func(step string) {
				t.Helper()
				if bs, ss := batched.Snapshot(), sequential.Snapshot(); bs != ss {
					t.Fatalf("%s: stats diverge: batched %+v, sequential %+v", step, bs, ss)
				}
				if bo, so := lruOrder(batched), lruOrder(sequential); !reflect.DeepEqual(bo, so) {
					t.Fatalf("%s: LRU order diverges:\nbatched    %v\nsequential %v", step, bo, so)
				}
				if err := batched.checkLRU(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			mget := func(step string, p *numa.Proc, keys []uint64) {
				t.Helper()
				dsts := make([][]byte, len(keys))
				for i := range dsts {
					dsts[i] = make([]byte, 32)
				}
				lens, found := make([]int, len(keys)), make([]bool, len(keys))
				batched.MGet(p, keys, dsts, lens, found)
				dst := make([]byte, 32)
				for i, k := range keys {
					n, ok := sequential.Get(p, k, dst)
					if ok != found[i] || n != lens[i] || !bytes.Equal(dst[:n], dsts[i][:lens[i]]) {
						t.Fatalf("%s: key %d: batched (%q,%v) vs sequential (%q,%v)", step, k, dsts[i][:lens[i]], found[i], dst[:n], ok)
					}
				}
				same(step)
			}
			mset := func(step string, p *numa.Proc, keys []uint64, base int) {
				t.Helper()
				vals := make([][]byte, len(keys))
				for i := range vals {
					vals[i] = val(base + i)
				}
				batched.MSet(p, keys, vals)
				for i, k := range keys {
					sequential.Set(p, k, vals[i])
				}
				same(step)
			}
			mdelete := func(step string, p *numa.Proc, keys []uint64) {
				t.Helper()
				found := make([]bool, len(keys))
				n := batched.MDeleteEach(p, keys, found)
				want := 0
				for i, k := range keys {
					ok := sequential.Delete(p, k)
					if ok {
						want++
					}
					if ok != found[i] {
						t.Fatalf("%s: key %d: batched deleted %v, sequential %v", step, k, found[i], ok)
					}
				}
				if n != want {
					t.Fatalf("%s: batched removed %d keys, sequential %d", step, n, want)
				}
				same(step)
			}
			// One requester per cluster.
			procs := make([]*numa.Proc, sc.clusters)
			for c := range procs {
				procs[c] = topo.Proc(c)
			}
			seq := func(n, mod, off int) []uint64 {
				keys := make([]uint64, n)
				for i := range keys {
					keys[i] = uint64(off + i%mod)
				}
				return keys
			}

			for _, p := range procs {
				mget("empty store", p, seq(10, 7, 0)) // absent, with duplicates
				mdelete("empty store", p, seq(10, 7, 0))
			}
			for c, p := range procs {
				// Duplicates resolve last-wins; successive requesters sit
				// on different clusters, so metadata lines migrate.
				mset("first sets", p, seq(50, 40, 0), 100*c)
			}
			for _, p := range procs {
				mget("hits, misses, duplicates", p, seq(30, 25, 30)) // 40..54 absent
			}
			for c, p := range procs {
				mset("evicting sets", p, seq(40, 40, 20), 1000+100*c)
			}
			for c, p := range procs {
				mdelete("deletes", p, seq(24, 16, 16*c)) // duplicates and already-evicted keys
				mget("after deletes", p, seq(60, 60, 0))
			}
			if st := batched.Snapshot(); st.Evictions == 0 || st.MetaMisses == 0 || st.Hits == 0 || st.Misses == 0 {
				t.Fatalf("script left a path unexercised: %+v", st)
			}
			for k := uint64(0); k < 60; k++ {
				mget("contents", procs[0], []uint64{k})
			}
			if got, want := batched.Len(procs[0]), sequential.Len(procs[0]); got != want {
				t.Fatalf("Len: batched %d, sequential %d", got, want)
			}
		})
	}
}

func TestExecStoreMatchesDirect(t *testing.T) {
	// The executor seam must preserve store semantics: a store whose
	// shards run through combining executors answers exactly like a
	// directly locked one.
	topo := numa.New(2, 8)
	p := topo.Proc(0)
	exec := New(Config{
		Topo:     topo,
		Locking:  FromExec(func() locks.Executor { return locks.NewCombiningAdaptive(topo, locks.NewMCS(topo)) }),
		Shards:   2,
		Buckets:  256,
		Capacity: 1024,
	})
	direct := newBatchStore(topo, 2, DefaultMaxBatch)

	const n = 300
	for i := 0; i < n; i++ {
		exec.Set(p, uint64(i), val(i))
		direct.Set(p, uint64(i), val(i))
	}
	dst := make([]byte, 32)
	dst2 := make([]byte, 32)
	for k := uint64(0); k < n+20; k++ {
		n1, ok1 := exec.Get(p, k, dst)
		n2, ok2 := direct.Get(p, k, dst2)
		if ok1 != ok2 || n1 != n2 || !bytes.Equal(dst[:n1], dst2[:n2]) {
			t.Fatalf("key %d: exec (%q,%v) vs direct (%q,%v)", k, dst[:n1], ok1, dst2[:n2], ok2)
		}
	}
	if got, want := exec.Len(p), direct.Len(p); got != want {
		t.Fatalf("Len: exec %d, direct %d", got, want)
	}
	if !exec.Delete(p, 0) || exec.Delete(p, uint64(n+5)) {
		t.Fatal("Delete through the executor seam misreported presence")
	}
	if err := exec.checkLRU(); err != nil {
		t.Fatal(err)
	}
}

func TestExecStoreConcurrent(t *testing.T) {
	// Concurrent mixed traffic through the combining executor: shard
	// invariants must hold and per-proc statistics must add up. Runs
	// under -race in CI, which also checks the combiner's
	// happens-before edges through the store's own closures.
	topo := numa.New(2, 8)
	s := New(Config{
		Topo:     topo,
		Locking:  FromExec(func() locks.Executor { return locks.NewCombiningAdaptive(topo, locks.NewMCS(topo)) }),
		Shards:   2,
		MaxBatch: 8,
		Buckets:  256,
		Capacity: 512,
	})
	const procs, iters = 8, 200
	spin.AutoOversubscribe(procs)
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			dst := make([]byte, 32)
			keys := make([]uint64, 4)
			vals := make([][]byte, 4)
			lens := make([]int, 4)
			found := make([]bool, 4)
			for k := 0; k < iters; k++ {
				key := uint64((id*iters + k) % 300)
				s.Set(p, key, val(k))
				s.Get(p, key, dst)
				for j := range keys {
					keys[j] = key + uint64(j)
					vals[j] = val(j)
				}
				s.MSet(p, keys, vals)
				s.MGet(p, keys, nil, lens, found)
				if k%17 == 0 {
					s.Delete(p, key)
				}
			}
		}(i)
	}
	wg.Wait()
	if err := s.checkLRU(); err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot()
	wantGets := uint64(procs * iters * 5) // 1 Get + 4 MGet per iteration
	wantSets := uint64(procs * iters * 5) // 1 Set + 4 MSet per iteration
	if st.Gets != wantGets || st.Sets != wantSets {
		t.Fatalf("stats: gets=%d sets=%d, want %d/%d", st.Gets, st.Sets, wantGets, wantSets)
	}
	if st.Hits+st.Misses != st.Gets {
		t.Fatalf("hits %d + misses %d != gets %d", st.Hits, st.Misses, st.Gets)
	}
}
