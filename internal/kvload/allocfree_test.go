package kvload

import (
	"fmt"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/spin"
)

// TestHotPathAllocationFree pins the steady-state property: once every
// item's value buffer has reached its largest size, no per-operation Go
// allocation happens anywhere on the measured path — not in the store,
// not in the harness's think/rand helpers. A regression here is, say, a
// result variable captured by an escaping closure.
func TestHotPathAllocationFree(t *testing.T) {
	topo := numa.New(4, 16)
	p := topo.Proc(0)
	val := make([]byte, 512)
	dst := make([]byte, 512)
	sizes := []int{64, 512, 200, 96, 448}

	s := kvstore.New(kvstore.Config{
		Topo: topo, Locking: kvstore.FromMutex(func() locks.Mutex { return locks.NewPthread() }), Buckets: 1 << 12, Capacity: 1 << 13,
	})
	for k := uint64(0); k < 1000; k++ {
		s.Set(p, k, val)
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		s.Set(p, uint64(i%1000), val[:sizes[i%len(sizes)]])
		i++
	}); n > 0 {
		t.Errorf("Set: %.3f allocs/op at steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { s.Get(p, 1, dst) }); n > 0 {
		t.Errorf("Get: %.3f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { s.Delete(p, 999999) }); n > 0 {
		t.Errorf("Delete miss: %.3f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { spin.WaitNs(1000) }); n > 0 {
		t.Errorf("spin.WaitNs: %.3f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { p.RandN(1000) }); n > 0 {
		t.Errorf("RandN: %.3f allocs/op, want 0", n)
	}
}

// TestBatchPathAllocationFree is the same property over the sharded,
// batched store: on an 8-shard HashMod store, under every lock seam
// (direct mutex, reader-writer, combining executor, combining
// reader-writer executor), a 16-key batch call and a single-key call allocate
// nothing at steady state — routing runs in
// per-proc scratch, and every critical section is a per-proc record
// rather than a closure that escapes through the executor interface.
func TestBatchPathAllocationFree(t *testing.T) {
	const batch = 16
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	sizes := []int{64, 512, 200, 96, 448}
	keys := make([]uint64, batch)
	vals := make([][]byte, batch)
	dsts := make([][]byte, batch)
	for i := range keys {
		keys[i] = uint64(i) * 0x9E3779B97F4A7C15
		vals[i] = make([]byte, 512)
		dsts[i] = make([]byte, 512)
	}
	lens := make([]int, batch)
	found := make([]bool, batch)
	sized := make([][]byte, batch)

	for _, lock := range []string{"c-bo-mcs", "rw-c-bo-mcs", "comb-a-c-bo-mcs", "comb-a-rw-c-bo-mcs"} {
		src, err := kvstore.FromRegistry(topo, lock)
		if err != nil {
			t.Fatal(err)
		}
		s := kvstore.New(kvstore.Config{
			Topo: topo, Locking: src, Shards: 8,
			Buckets: 1 << 12, Capacity: 1 << 13,
		})
		// Warm up: every item (and every recycled item the
		// deletes below leave on the free lists) has held a
		// maximum-size value, so value buffers never grow again.
		s.MSet(p, keys, vals)
		round := 0
		check := func(op string, f func()) {
			t.Helper()
			if n := testing.AllocsPerRun(200, f); n > 0 {
				t.Errorf("%s %s: %.3f allocs/call at steady state, want 0", lock, op, n)
			}
		}
		check("MSet", func() {
			for i := range sized {
				sized[i] = vals[i][:sizes[(round+i)%len(sizes)]]
			}
			round++
			s.MSet(p, keys, sized)
		})
		check("MGet", func() { s.MGet(p, keys, dsts, lens, found) })
		for i, ok := range found {
			if !ok {
				t.Fatalf("%s: key %d missing after MSet", lock, i)
			}
		}
		check("MGet probe", func() { s.MGet(p, keys, nil, lens, found) })
		check("MDelete+MSet", func() {
			if n := s.MDelete(p, keys); n != batch {
				panic(fmt.Sprintf("MDelete removed %d of %d keys", n, batch))
			}
			s.MSet(p, keys, vals)
		})
		check("MDeleteEach+MSet", func() {
			s.MDeleteEach(p, keys, found)
			s.MSet(p, keys, vals)
		})
		check("Get", func() { s.Get(p, keys[round%batch], dsts[0]); round++ })
		check("Set", func() { s.Set(p, keys[round%batch], vals[0][:sizes[round%len(sizes)]]); round++ })
		check("Delete+Set", func() {
			s.Delete(p, keys[round%batch])
			s.Set(p, keys[round%batch], vals[0])
			round++
		})
	}
}
