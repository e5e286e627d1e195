package kvstore

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/locks"
	"repro/internal/numa"
)

// clockSeams are the three lock seams a shard reads under: exclusive
// reads over a mutex, shared reads over a reader-writer lock, and a
// combining executor's shared reads.
var clockSeams = []struct {
	name string
	src  func(*numa.Topology) LockSource
}{
	{"pthread", func(*numa.Topology) LockSource {
		return FromMutex(func() locks.Mutex { return locks.NewPthread() })
	}},
	{"rw-mcs", func(topo *numa.Topology) LockSource {
		return FromRW(func() locks.RWMutex { return locks.NewRWPerCluster(topo, locks.NewMCS(topo)) })
	}},
	{"comb-a-rw-mcs", func(topo *numa.Topology) LockSource {
		return FromExec(func() locks.Executor {
			return locks.NewRWCombiningAdaptive(topo, locks.NewRWPerCluster(topo, locks.NewMCS(topo)))
		})
	}},
}

// resident reports which keys a single-shard store holds, without the
// lookup that would set their reference bits.
func resident(s *Store, keys ...uint64) []bool {
	in := make([]bool, len(keys))
	for i, k := range keys {
		in[i] = s.shards[0].find(k) != nil
	}
	return in
}

// TestRWTouchPolicy pins CLOCK for a hit by Get, and
// TestSharedMGetTouchPolicy for a hit by MGet, each under every lock
// seam: the hit item survives the next eviction, the unhit one is the
// victim, and the hit item, its bit now cleared by the hand, is evicted
// on the hand's next pass, before the items inserted after it. No item
// outlives a revolution of the hand unreferenced.
func TestRWTouchPolicy(t *testing.T) {
	checkClockPolicy(t, func(s *Store, p *numa.Proc, key uint64) bool {
		_, ok := s.Get(p, key, make([]byte, 4))
		return ok
	})
}

func TestSharedMGetTouchPolicy(t *testing.T) {
	checkClockPolicy(t, func(s *Store, p *numa.Proc, key uint64) bool {
		found := make([]bool, 1)
		s.MGet(p, []uint64{key}, nil, make([]int, 1), found)
		return found[0]
	})
}

// checkClockPolicy runs the CLOCK steps over every seam, with hit as
// the read that references key 1.
func checkClockPolicy(t *testing.T, hit func(s *Store, p *numa.Proc, key uint64) bool) {
	for _, seam := range clockSeams {
		t.Run(seam.name, func(t *testing.T) {
			topo := numa.New(2, 4)
			p := topo.Proc(0)
			s := New(Config{Topo: topo, Locking: seam.src(topo), Buckets: 64, Capacity: 3})
			set := func(k uint64) { s.Set(p, k, []byte{byte(k)}) }
			want := func(step string, keys []uint64, in ...bool) {
				t.Helper()
				if got := resident(s, keys...); !equalBools(got, in) {
					t.Fatalf("%s: keys %v resident %v, want %v", step, keys, got, in)
				}
				if err := s.checkLRU(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			set(1)
			set(2)
			set(3)
			if !hit(s, p, 1) {
				t.Fatal("hit on key 1 missed")
			}
			set(4) // the hand spares 1, clearing its bit, and evicts 2
			want("after 4", []uint64{1, 2, 3, 4}, true, false, true, true)
			set(5) // evicts 3, the hand's next candidate
			want("after 5", []uint64{1, 3, 4, 5}, true, false, true, true)
			set(6) // the hand comes round to 1: no second second chance
			want("after 6", []uint64{1, 4, 5, 6}, false, true, true, true)
			if ev := s.Snapshot().Evictions; ev != 3 {
				t.Fatalf("Evictions = %d, want 3", ev)
			}
		})
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClockBoundedScan fills a shard whose every item is referenced:
// an insert still evicts, after clearing exactly clockScan bits, and
// a run of inserts keeps Len at capacity and the list intact.
func TestClockBoundedScan(t *testing.T) {
	for _, seam := range clockSeams {
		t.Run(seam.name, func(t *testing.T) {
			topo := numa.New(2, 4)
			p := topo.Proc(0)
			const capacity = 16
			s := New(Config{Topo: topo, Locking: seam.src(topo), Buckets: 64, Capacity: capacity})
			sh := s.shards[0]
			referenced := func() int {
				n := 0
				for it := sh.head; it != nil; it = it.next {
					n += int(it.ref.Load())
				}
				return n
			}
			keys := make([]uint64, capacity)
			for i := range keys {
				keys[i] = uint64(i)
				s.Set(p, keys[i], []byte("v"))
			}
			s.MGet(p, keys, nil, make([]int, capacity), make([]bool, capacity))
			if n := referenced(); n != capacity {
				t.Fatalf("%d of %d items referenced after reading them all", n, capacity)
			}
			s.Set(p, capacity, []byte("v"))
			// clockScan bits cleared, one referenced item evicted, and the
			// new item's bit clear.
			if n, want := referenced(), capacity-clockScan-1; n != want {
				t.Fatalf("one insert left %d items referenced, want %d", n, want)
			}
			for k := uint64(capacity + 1); k < 4*capacity; k++ {
				s.Set(p, k, []byte("v"))
				if n := s.Len(p); n > capacity {
					t.Fatalf("Len = %d after inserting %d, capacity %d", n, k, capacity)
				}
				if err := s.checkLRU(); err != nil {
					t.Fatalf("after inserting %d: %v", k, err)
				}
			}
			if ev := s.Snapshot().Evictions; ev != 3*capacity {
				t.Fatalf("Evictions = %d, want %d (one per insert into a full shard)", ev, 3*capacity)
			}
		})
	}
}

// TestItemIsOneLine pins the item header to one 64-byte line: the
// reference bit fits beside owner and nameLen.
func TestItemIsOneLine(t *testing.T) {
	if n := unsafe.Sizeof(item{}); n != 64 {
		t.Fatalf("item is %d bytes, want 64", n)
	}
}

// TestClockHandHammer races the one item word written outside an
// exclusive section: shared readers over rw-mcs set reference bits
// while a writer's inserts move the hand (clearing bits as it goes)
// and its deletes unlink the very item under the hand. The writer is
// the only proc that moves the hand, so it can read the hand's key in
// an exclusive section of its own and delete exactly that item. Run
// under -race this is the check that the bit is the atomic the
// publication rule says it is; readers also check every value they
// find is well formed.
func TestClockHandHammer(t *testing.T) {
	const (
		readers  = 3
		keyspace = 48
		capacity = 16
	)
	rounds := 4000
	if testing.Short() {
		rounds /= 4
	}
	topo := numa.New(2, readers+1)
	s := New(Config{
		Topo: topo, Locking: clockSeams[1].src(topo),
		MaxBatch: 4, Buckets: 64, Capacity: capacity,
	})
	sh := s.shards[0]
	val := func(k uint64) []byte { return bytes.Repeat([]byte{byte(k)}, 16) }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var bad [readers]int
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(p *numa.Proc, r int) {
			defer wg.Done()
			keys := make([]uint64, 4)
			dsts := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16), make([]byte, 16)}
			lens := make([]int, 4)
			found := make([]bool, 4)
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
				for i, k := range keys {
					if found[i] && !bytes.Equal(dsts[i][:lens[i]], val(k)) {
						bad[r]++
					}
				}
				if n, ok := s.Get(p, keys[0], dsts[0]); ok && !bytes.Equal(dsts[0][:n], val(keys[0])) {
					bad[r]++
				}
			}
		}(topo.Proc(r), r)
	}

	w := topo.Proc(readers)
	handDeletes := 0
	for round := 0; round < rounds; round++ {
		k := uint64(w.RandN(keyspace))
		s.Set(w, k, val(k))
		if round%4 != 3 {
			continue
		}
		var handKey uint64
		onHand := false
		sh.x.Exec(w, func() {
			if sh.hand != nil {
				handKey, onHand = sh.hand.key.Load(), true
			}
		})
		if onHand && s.Delete(w, handKey) {
			handDeletes++
		}
	}
	close(stop)
	wg.Wait()

	for r, n := range bad {
		if n != 0 {
			t.Errorf("reader %d saw %d wrong values", r, n)
		}
	}
	if handDeletes == 0 {
		t.Error("no delete ever removed the item under the hand")
	}
	if s.Snapshot().Evictions == 0 {
		t.Error("the writer never evicted")
	}
	if n := s.Len(w); n > capacity {
		t.Errorf("Len = %d, capacity %d", n, capacity)
	}
	if err := s.checkLRU(); err != nil {
		t.Error(err)
	}
}
