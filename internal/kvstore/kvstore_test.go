package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/locks"
	"repro/internal/numa"
)

func newTestStore(capacity int) (*Store, *numa.Topology) {
	topo := numa.New(4, 16)
	s := New(Config{
		Topo: topo, Locking: FromMutex(func() locks.Mutex { return locks.NewPthread() }),
		Buckets: 64, Capacity: capacity,
		Cache:       cachesim.Config{LocalNs: 1, RemoteNs: 1},
		ItemLocalNs: 1, ItemRemoteNs: 1,
	})
	return s, topo
}

func TestSetGetRoundTrip(t *testing.T) {
	s, topo := newTestStore(100)
	p := topo.Proc(0)
	val := []byte("hello cohort")
	s.Set(p, 42, val)
	dst := make([]byte, 64)
	n, ok := s.Get(p, 42, dst)
	if !ok {
		t.Fatal("key missing after Set")
	}
	if !bytes.Equal(dst[:n], val) {
		t.Fatalf("Get = %q, want %q", dst[:n], val)
	}
}

func TestGetMiss(t *testing.T) {
	s, topo := newTestStore(100)
	p := topo.Proc(0)
	if _, ok := s.Get(p, 7, make([]byte, 8)); ok {
		t.Fatal("hit on empty store")
	}
	st := s.Snapshot()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSetOverwrites(t *testing.T) {
	s, topo := newTestStore(100)
	p := topo.Proc(0)
	s.Set(p, 1, []byte("aaaa"))
	s.Set(p, 1, []byte("bb"))
	dst := make([]byte, 16)
	n, ok := s.Get(p, 1, dst)
	if !ok || string(dst[:n]) != "bb" {
		t.Fatalf("Get = %q,%v want bb", dst[:n], ok)
	}
	if s.Len(p) != 1 {
		t.Fatalf("Len = %d, want 1", s.Len(p))
	}
}

func TestValueGrowth(t *testing.T) {
	s, topo := newTestStore(100)
	p := topo.Proc(0)
	s.Set(p, 1, []byte("x"))
	long := bytes.Repeat([]byte("y"), 300)
	s.Set(p, 1, long)
	dst := make([]byte, 400)
	n, ok := s.Get(p, 1, dst)
	if !ok || !bytes.Equal(dst[:n], long) {
		t.Fatal("grown value mismatch")
	}
}

func TestTruncatingGet(t *testing.T) {
	s, topo := newTestStore(100)
	p := topo.Proc(0)
	s.Set(p, 1, []byte("0123456789"))
	dst := make([]byte, 4)
	n, ok := s.Get(p, 1, dst)
	if !ok || n != 4 || string(dst) != "0123" {
		t.Fatalf("truncating Get = %q (%d)", dst, n)
	}
}

func TestDelete(t *testing.T) {
	s, topo := newTestStore(100)
	p := topo.Proc(0)
	s.Set(p, 5, []byte("v"))
	if !s.Delete(p, 5) {
		t.Fatal("delete of present key failed")
	}
	if s.Delete(p, 5) {
		t.Fatal("delete of absent key succeeded")
	}
	if _, ok := s.Get(p, 5, make([]byte, 4)); ok {
		t.Fatal("deleted key still readable")
	}
	if s.Len(p) != 0 {
		t.Fatal("Len after delete != 0")
	}
	if err := s.checkLRU(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	s, topo := newTestStore(3)
	p := topo.Proc(0)
	s.Set(p, 1, []byte("a"))
	s.Set(p, 2, []byte("b"))
	s.Set(p, 3, []byte("c"))
	// Hit 1 so the hand spares it and 2 becomes the victim.
	if _, ok := s.Get(p, 1, make([]byte, 4)); !ok {
		t.Fatal("warm get failed")
	}
	s.Set(p, 4, []byte("d")) // evicts 2
	if _, ok := s.Get(p, 2, make([]byte, 4)); ok {
		t.Fatal("LRU victim 2 still present")
	}
	for _, k := range []uint64{1, 3, 4} {
		if _, ok := s.Get(p, k, make([]byte, 4)); !ok {
			t.Fatalf("key %d wrongly evicted", k)
		}
	}
	st := s.Snapshot()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if err := s.checkLRU(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictedItemsRecycled(t *testing.T) {
	s, topo := newTestStore(2)
	p := topo.Proc(0)
	for k := uint64(0); k < 50; k++ {
		s.Set(p, k, []byte("v"))
	}
	if got := s.Len(p); got != 2 {
		t.Fatalf("Len = %d, want capacity 2", got)
	}
	if s.shards[0].free == nil {
		t.Fatal("evicted items not pooled")
	}
	if err := s.checkLRU(); err != nil {
		t.Fatal(err)
	}
}

func TestHashCollisionChains(t *testing.T) {
	// With 64 buckets, 1000 keys guarantee chains; all must resolve.
	s, topo := newTestStore(2000)
	p := topo.Proc(0)
	for k := uint64(0); k < 1000; k++ {
		s.Set(p, k, []byte{byte(k)})
	}
	dst := make([]byte, 4)
	for k := uint64(0); k < 1000; k++ {
		n, ok := s.Get(p, k, dst)
		if !ok || n != 1 || dst[0] != byte(k) {
			t.Fatalf("key %d: got %v %q", k, ok, dst[:n])
		}
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	topo := numa.New(4, 16)
	s := New(Config{
		Topo: topo, Locking: FromMutex(func() locks.Mutex { return locks.NewMCS(topo) }),
		Buckets: 256, Capacity: 512,
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
			val := []byte(fmt.Sprintf("worker-%02d", id))
			for k := 0; k < 800; k++ {
				key := uint64(k % 300)
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

func TestConfigDefaultsAndValidation(t *testing.T) {
	topo := numa.New(2, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil topology accepted")
			}
		}()
		New(Config{Locking: FromMutex(func() locks.Mutex { return locks.NewPthread() })})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil lock accepted")
			}
		}()
		New(Config{Topo: topo})
	}()
	s := New(Config{Topo: topo, Locking: FromMutex(func() locks.Mutex { return locks.NewPthread() }), Buckets: 100})
	if got := len(s.shards[0].buckets); got != 128 {
		t.Errorf("buckets rounded to %d, want 128", got)
	}
}
