package kvstore

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/numa"
)

// TestRecordReuseHammer drives the per-proc critical-section records
// through combining executors from four procs at once, on overlapping
// keys, and checks every answer against a mutex-guarded reference map.
// Each proc writes (MSet/MDelete) only the keys it owns, so the
// reference is exact for them at all times, and reads (MGet/Get) keys
// of every owner: its own must match the reference byte for byte, and
// anyone's must be a well-formed value of the key asked for. A record
// reused before its combiner marked it done, an argument seen from the
// wrong operation, or a result read before the combiner's done store
// therefore shows as a wrong byte here — and as a data race under
// -race, which CI runs this package with.
//
// The evicting half of the matrix is the warm pass's hammer: a key
// range ten times the capacity, so nearly every MSet inserts, evicts
// and recycles an item through the free list while the other procs'
// batch calls are in Store.route loading bucket heads and head-item
// keys with no lock held — over every exclusion seam. A bucket head or an item key stored plainly instead of
// atomically is a data race there. A miss is always legal under
// eviction, so those cases check what was found: an own key that is
// found must carry exactly the reference's bytes.
func TestRecordReuseHammer(t *testing.T) {
	const (
		procs    = 4
		batch    = 12
		valueLen = 48
	)
	type hammerCase struct {
		lock     string
		evicting bool
	}
	cases := []hammerCase{
		{"comb-a-mcs", false},
		{"comb-a-rw-mcs", false},
	}
	for _, lock := range []string{"pthread", "rw-mcs", "comb-a-mcs", "comb-a-rw-mcs"} {
		cases = append(cases, hammerCase{lock, true})
	}
	// A value names its key and version and is filled with a byte
	// derived from both, so bytes from another key, another version or
	// a torn copy are recognizable.
	render := func(dst []byte, key uint64, version uint32) []byte {
		dst = dst[:valueLen]
		binary.LittleEndian.PutUint64(dst, key)
		binary.LittleEndian.PutUint32(dst[8:], version)
		fill := byte(key*31 + uint64(version))
		for i := 12; i < valueLen; i++ {
			dst[i] = fill
		}
		return dst
	}
	wellFormed := func(got []byte, key uint64) bool {
		if len(got) != valueLen || binary.LittleEndian.Uint64(got) != key {
			return false
		}
		want := render(make([]byte, valueLen), key, binary.LittleEndian.Uint32(got[8:]))
		return bytes.Equal(got, want)
	}

	for _, hc := range cases {
		// keys k with k%procs == id belong to proc id
		keyspace, capacity, rounds := int64(96), 4*96, 3000
		name, evicting := hc.lock, hc.evicting
		if evicting {
			keyspace, capacity, rounds = 640, 64, 800
			name = "evicting/" + hc.lock
		}
		if testing.Short() {
			rounds /= 6
		}
		t.Run(name, func(t *testing.T) {
			topo := numa.New(2, procs)
			src, err := FromRegistry(topo, hc.lock)
			if err != nil {
				t.Fatal(err)
			}
			s := New(Config{
				Topo: topo, Locking: src, Shards: 2, MaxBatch: 5,
				Buckets: 256, Capacity: capacity,
			})
			var refMu sync.Mutex
			ref := make(map[uint64][]byte) // absent = deleted

			var wg sync.WaitGroup
			for id := 0; id < procs; id++ {
				wg.Add(1)
				go func(p *numa.Proc, id int) {
					defer wg.Done()
					keys := make([]uint64, batch)
					vals := make([][]byte, batch)
					dsts := make([][]byte, batch)
					for i := range vals {
						vals[i] = make([]byte, valueLen)
						dsts[i] = make([]byte, valueLen)
					}
					lens := make([]int, batch)
					found := make([]bool, batch)
					own := func() uint64 { return uint64(p.RandN(keyspace/procs))*procs + uint64(id) }
					// checkRead judges one answered lookup.
					checkRead := func(op string, key uint64, got []byte, ok bool) {
						if ok && !wellFormed(got, key) {
							t.Errorf("proc %d %s(%d): malformed value %x", id, op, key, got)
						}
						if key%procs != uint64(id) {
							return
						}
						refMu.Lock()
						want, present := ref[key]
						refMu.Unlock()
						if !ok && evicting {
							return
						}
						if ok != present || (ok && !bytes.Equal(got, want)) {
							t.Errorf("proc %d %s(%d): got (%x, %v), reference (%x, %v)", id, op, key, got, ok, want, present)
						}
					}
					for round := 0; round < rounds && !t.Failed(); round++ {
						n := 1 + int(p.RandN(batch))
						switch p.RandN(4) {
						case 0: // MSet own keys; duplicates resolve last-wins
							for i := 0; i < n; i++ {
								keys[i] = own()
								render(vals[i], keys[i], uint32(round*batch+i))
							}
							s.MSet(p, keys[:n], vals[:n])
							refMu.Lock()
							for i := 0; i < n; i++ {
								ref[keys[i]] = append(ref[keys[i]][:0], vals[i]...)
							}
							refMu.Unlock()
						case 1: // MDeleteEach own keys
							for i := 0; i < n; i++ {
								keys[i] = own()
							}
							s.MDeleteEach(p, keys[:n], found[:n])
							refMu.Lock()
							for i := 0; i < n; i++ {
								// A duplicate later in the batch finds the
								// key already gone.
								if _, present := ref[keys[i]]; present != found[i] && (found[i] || !evicting) {
									t.Errorf("proc %d MDeleteEach(%d): found %v, reference present %v", id, keys[i], found[i], present)
								}
								delete(ref, keys[i])
							}
							refMu.Unlock()
						case 2: // MGet anyone's keys
							for i := 0; i < n; i++ {
								keys[i] = uint64(p.RandN(keyspace))
							}
							s.MGet(p, keys[:n], dsts[:n], lens[:n], found[:n])
							for i := 0; i < n; i++ {
								checkRead("MGet", keys[i], dsts[i][:lens[i]], found[i])
							}
						case 3: // Get anyone's key
							key := uint64(p.RandN(keyspace))
							ln, ok := s.Get(p, key, dsts[0])
							checkRead("Get", key, dsts[0][:ln], ok)
						}
					}
				}(topo.Proc(id), id)
			}
			wg.Wait()

			// Quiescent: the store holds exactly the reference.
			p := topo.Proc(0)
			dst := make([]byte, valueLen)
			for key := uint64(0); key < uint64(keyspace); key++ {
				n, ok := s.Get(p, key, dst)
				want, present := ref[key]
				if !ok && evicting {
					continue
				}
				if ok != present || (ok && !bytes.Equal(dst[:n], want)) {
					t.Errorf("final Get(%d): got (%x, %v), reference (%x, %v)", key, dst[:n], ok, want, present)
				}
			}
			if got, want := s.Len(p), len(ref); got != want && !(evicting && got <= min(want, s.Capacity())) {
				t.Errorf("store holds %d items, reference %d, capacity %d", got, want, s.Capacity())
			}
			if evicting && s.Snapshot().Evictions == 0 {
				t.Error("evicting case never evicted")
			}
			if err := s.checkLRU(); err != nil {
				t.Error(err)
			}
			for _, sh := range s.shards {
				for i := range sh.slots {
					if r := &sh.slots[i].cs; r.buf != nil || r.keys != nil || r.bufs != nil || r.lens != nil || r.found != nil || r.chunk != nil {
						t.Errorf("idle record of proc %d still references caller memory: %+v", i, *r)
					}
				}
			}
		})
	}
}
