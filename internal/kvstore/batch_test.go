package kvstore

import (
	"bytes"
	"fmt"
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
	s := New(Config{Topo: topo, Locking: FromLock(lock), MaxBatch: batch, Buckets: 64, Capacity: 64})

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
		Topo:      topo,
		Locking:   FromMutex(func() locks.Mutex { return locks.NewPthread() }),
		Shards:    shards,
		MaxBatch:  maxBatch,
		Placement: HashMod,
		Buckets:   512,
		Capacity:  4096,
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

func TestBatchedStoreMatchesSequential(t *testing.T) {
	// A single-shard batched run must be indistinguishable from the
	// sequential calls: same contents, same LRU order, same statistics.
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	batched := newBatchStore(topo, 1, 4)
	sequential := newBatchStore(topo, 1, 4)

	const n = 50
	keys := make([]uint64, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = uint64(i % 40) // include duplicate keys: last write wins
		vals[i] = val(i)
	}
	batched.MSet(p, keys, vals)
	for i := range keys {
		sequential.Set(p, keys[i], vals[i])
	}

	if got, want := batched.Len(p), sequential.Len(p); got != want {
		t.Fatalf("Len: batched %d, sequential %d", got, want)
	}
	dst := make([]byte, 32)
	dst2 := make([]byte, 32)
	for k := uint64(0); k < 40; k++ {
		n1, ok1 := batched.Get(p, k, dst)
		n2, ok2 := sequential.Get(p, k, dst2)
		if ok1 != ok2 || n1 != n2 || !bytes.Equal(dst[:n1], dst2[:n2]) {
			t.Fatalf("key %d: batched (%q,%v) vs sequential (%q,%v)", k, dst[:n1], ok1, dst2[:n2], ok2)
		}
	}
	bs, ss := batched.Snapshot(), sequential.Snapshot()
	if bs != ss {
		t.Fatalf("stats diverge: batched %+v, sequential %+v", bs, ss)
	}
	if err := batched.checkLRU(); err != nil {
		t.Fatal(err)
	}

	// Deletes: remove every even key through the batch API on one
	// store, sequentially on the other.
	var evens []uint64
	for k := uint64(0); k < 40; k += 2 {
		evens = append(evens, k)
	}
	deleted := batched.MDelete(p, evens)
	want := 0
	for _, k := range evens {
		if sequential.Delete(p, k) {
			want++
		}
	}
	if deleted != want {
		t.Fatalf("MDelete removed %d keys, sequential removed %d", deleted, want)
	}
	if got, wantLen := batched.Len(p), sequential.Len(p); got != wantLen {
		t.Fatalf("Len after delete: batched %d, sequential %d", got, wantLen)
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
		Locking:  FromExec(func() locks.Executor { return locks.NewCombining(topo, locks.NewMCS(topo)) }),
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
		Locking:  FromExec(func() locks.Executor { return locks.NewCombining(topo, locks.NewMCS(topo)) }),
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
