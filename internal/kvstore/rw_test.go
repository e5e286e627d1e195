package kvstore

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/locks"
	"repro/internal/numa"
)

// rwStore builds a single-shard store over a genuine reader-writer
// lock (per-cluster readers over MCS writers).
func rwStore(topo *numa.Topology) *Store {
	return New(Config{
		Topo:     topo,
		Locking:  FromRW(func() locks.RWMutex { return locks.NewRWPerCluster(topo, locks.NewMCS(topo)) }),
		Buckets:  1 << 10,
		Capacity: 1 << 12,
	})
}

// TestRWGetSemantics: the shared read path returns the same results as
// the exclusive one for hits, misses, deletes and overwrites.
func TestRWGetSemantics(t *testing.T) {
	topo := numa.New(2, 4)
	s := rwStore(topo)
	p := topo.Proc(0)
	dst := make([]byte, 16)

	if _, ok := s.Get(p, 1, dst); ok {
		t.Fatal("hit on empty store")
	}
	s.Set(p, 1, []byte("hello"))
	n, ok := s.Get(p, 1, dst)
	if !ok || !bytes.Equal(dst[:n], []byte("hello")) {
		t.Fatalf("Get = %q, %v; want hello", dst[:n], ok)
	}
	s.Set(p, 1, []byte("world"))
	n, ok = s.Get(p, 1, dst)
	if !ok || !bytes.Equal(dst[:n], []byte("world")) {
		t.Fatalf("Get after overwrite = %q, %v; want world", dst[:n], ok)
	}
	if !s.Delete(p, 1) {
		t.Fatal("Delete missed")
	}
	if _, ok := s.Get(p, 1, dst); ok {
		t.Fatal("hit after delete")
	}
	st := s.Snapshot()
	if st.Gets != 4 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v; want 4 gets, 2 hits, 2 misses", st)
	}
}

// TestRWConcurrentReadersWriter hammers the shared read path: readers
// verify values are never torn while writers overwrite and delete
// under exclusive mode. Run under -race this is the kvstore RW-path
// coherence check CI leans on.
func TestRWConcurrentReadersWriter(t *testing.T) {
	topo := numa.New(4, 12)
	s := rwStore(topo)
	const keys = 64
	// Every value of key k is a run of identical bytes; a torn read
	// surfaces as a mixed-byte buffer.
	val := func(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }
	seed := topo.Proc(0)
	for k := uint64(0); k < keys; k++ {
		s.Set(seed, k, val(byte(k)))
	}

	var bad atomic.Int64
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(p *numa.Proc) {
			defer readers.Done()
			dst := make([]byte, 32)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(p.RandN(keys))
				if n, ok := s.Get(p, k, dst); ok {
					for _, b := range dst[1:n] {
						if b != dst[0] {
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
			for i := 0; i < 3000; i++ {
				k := uint64(p.RandN(keys))
				switch p.RandN(10) {
				case 0:
					s.Delete(p, k)
				default:
					s.Set(p, k, val(byte(p.RandN(256))))
				}
			}
		}(topo.Proc(w))
	}
	// Writers have a fixed quota; once they retire it, stop the readers.
	writers.Wait()
	close(stop)
	readers.Wait()
	if bad.Load() != 0 {
		t.Fatalf("readers observed %d torn values", bad.Load())
	}
	if err := s.checkLRU(); err != nil {
		t.Fatal(err)
	}
}
