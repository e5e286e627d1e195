package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/numa"
)

// fuzzKeys is the fuzz target's keyspace: small, so that overwrites,
// duplicate keys inside one batch and delete-then-reinsert are common.
const fuzzKeys = 32

// fuzzSeams are four lock sources, one of each kind the shard's
// executor wraps: a mutex, a reader-writer lock (shared reads that set
// reference bits), a combining executor and a combining reader-writer
// executor.
var fuzzSeams = []string{"c-bo-mcs", "rw-c-bo-mcs", "comb-a-c-bo-mcs", "comb-a-rw-c-bo-mcs"}

// FuzzStoreAgainstModel decodes its input into single and batched store
// operations and replays them, over every lock source on one and on four
// shards, against a reference map. With room for the whole keyspace the
// store must agree with the map exactly: every answer, every byte, and
// Len. With less room than keys, eviction makes a miss always legal, so
// what is checked is what is found: a hit carries the map's bytes, the
// store never holds more than its capacity, and the lists and clock
// hands stay sound. The seeds run under plain go test.
func FuzzStoreAgainstModel(f *testing.F) {
	f.Add([]byte{})
	// Set k1 long, overwrite it short, then empty, then longer than ever.
	f.Add([]byte{0, 1, 200, 0, 1, 3, 1, 1, 0, 1, 0, 1, 1, 0, 1, 255, 1, 1})
	// MSet four pairs with a duplicate key, MGet them back, MDeleteEach
	// a duplicate and an absent key, MDelete the rest, Get a miss.
	f.Add([]byte{0x33, 5, 10, 6, 20, 5, 30, 9, 40, 0x20, 5, 6, 9, 0x22, 5, 5, 8, 0x13, 6, 9, 1, 5})
	// One key set, deleted, reinserted and read by all four procs.
	f.Add([]byte{0, 2, 3, 0x10, 2, 0x15, 2, 4, 0x24, 2, 0x33, 2, 1, 2, 0x31, 2, 1, 0x16, 2})
	// The randomized property loops: some 25 000 operations per store,
	// in streams short enough for the fuzzer to mutate quickly.
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 48; i++ {
		seed := make([]byte, 2048)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lock := range fuzzSeams {
			for _, shards := range []int{1, 4} {
				replayAgainstModel(t, data, lock, shards, true)
				replayAgainstModel(t, data, lock, shards, false)
			}
		}
	})
}

// replayAgainstModel runs one decoded operation stream against one
// store. An operation is an opcode byte — the low bits pick the
// operation, the high bits the proc issuing it — followed by its
// operands: a key byte per key, and for sets a length byte per value.
// An exhausted stream reads as zeros.
func replayAgainstModel(t *testing.T, data []byte, lock string, shards int, exact bool) {
	// Capacity is split evenly over the shards and keys are not, so
	// only fuzzKeys per shard guarantees that nothing is evicted.
	capacity := fuzzKeys / 4
	if exact {
		capacity = fuzzKeys * shards
	}
	topo := numa.New(2, 4)
	src, err := FromRegistry(topo, lock)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Topo: topo, Locking: src, Shards: shards,
		MaxBatch: 3, Buckets: 16, Capacity: capacity,
		Cache:       cachesim.Config{LocalNs: 0, RemoteNs: 1},
		ItemLocalNs: 0, ItemRemoteNs: 1,
	})
	where := fmt.Sprintf("%s, %d shards, capacity %d", lock, shards, capacity)

	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	key := func() uint64 { return uint64(next() % fuzzKeys) }
	// A value's bytes depend on when it was written, so a stale buffer,
	// a neighbour's buffer or a short copy all read as a mismatch.
	// Lengths run from 0 to 765: empty, and growth past any buffer an
	// item already owns.
	written := 0
	value := func() []byte {
		v := make([]byte, int(next())*3)
		written++
		for i := range v {
			v[i] = byte(written*7 + i)
		}
		return v
	}
	model := map[uint64][]byte{}
	// hit judges one lookup's answer.
	hit := func(op string, k uint64, got []byte, ok bool) {
		t.Helper()
		want, present := model[k]
		if ok && (!present || !bytes.Equal(got, want)) {
			t.Fatalf("%s: %s(%d) = %x, model (%x, %v)", where, op, k, got, want, present)
		}
		if exact && !ok && present {
			t.Fatalf("%s: %s(%d) missed, model holds %x", where, op, k, want)
		}
	}
	// gone judges one delete's answer, then applies it to the model.
	gone := func(op string, k uint64, ok bool) {
		t.Helper()
		if _, present := model[k]; ok != present && (ok || exact) {
			t.Fatalf("%s: %s(%d) = %v, model present %v", where, op, k, ok, present)
		}
		delete(model, k)
	}

	dst := make([]byte, 800)
	for len(data) > 0 {
		op := next()
		p := topo.Proc(int(op>>4) % 4)
		n := 1 + int(op>>4)%6
		keys := make([]uint64, n) // batch operations only
		switch op % 7 {
		case 0:
			k := key()
			model[k] = value()
			s.Set(p, k, model[k])
		case 1:
			k := key()
			ln, ok := s.Get(p, k, dst)
			hit("Get", k, dst[:ln], ok)
		case 2:
			k := key()
			gone("Delete", k, s.Delete(p, k))
		case 3:
			vals := make([][]byte, n)
			for i := range keys {
				keys[i], vals[i] = key(), value()
			}
			s.MSet(p, keys, vals)
			for i, k := range keys {
				model[k] = vals[i] // duplicates resolve last-wins
			}
		case 4:
			dsts, lens, found := make([][]byte, n), make([]int, n), make([]bool, n)
			for i := range keys {
				keys[i], dsts[i] = key(), make([]byte, 800)
			}
			s.MGet(p, keys, dsts, lens, found)
			for i, k := range keys {
				hit("MGet", k, dsts[i][:lens[i]], found[i])
			}
		case 5:
			present := 0
			for i := range keys {
				keys[i] = key()
				if _, ok := model[keys[i]]; ok {
					present++
					delete(model, keys[i])
				}
			}
			if got := s.MDelete(p, keys); got > present || (exact && got != present) {
				t.Fatalf("%s: MDelete(%v) = %d, model held %d", where, keys, got, present)
			}
		case 6:
			found := make([]bool, n)
			for i := range keys {
				keys[i] = key()
			}
			count := s.MDeleteEach(p, keys, found)
			for i, k := range keys {
				gone("MDeleteEach", k, found[i]) // a duplicate finds it gone
				if found[i] {
					count--
				}
			}
			if count != 0 {
				t.Fatalf("%s: MDeleteEach(%v) count disagrees with found %v by %d", where, keys, found, count)
			}
		}
	}

	p := topo.Proc(0)
	if got := s.Len(p); got > len(model) || got > s.Capacity() || (exact && got != len(model)) {
		t.Fatalf("%s: Len = %d, model %d, capacity %d", where, got, len(model), s.Capacity())
	}
	if err := s.checkLRU(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
}
