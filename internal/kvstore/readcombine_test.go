package kvstore

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

func TestReadCombiningShardDetection(t *testing.T) {
	// The shard posts every read to its executor's ExecShared, and the
	// executor's shared face decides where it runs: a comb-a-* combiner
	// runs each Get and MGet chunk through its combiner, one exclusive
	// acquisition of its operand, and a comb-a-rw-* one runs them in
	// its operand's shared mode, outside the combiner. Counters sit
	// between the combiner and its operand, interposed through
	// registry.Unwrap and Wrap.
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	for _, c := range []struct {
		name         string
		excl, shared uint64 // acquisitions per read
	}{{"comb-a-mcs", 1, 0}, {"comb-a-rw-mcs", 0, 1}} {
		var excl, shared atomic.Uint64
		e, err := registry.Find(c.name)
		if err != nil {
			t.Fatal(err)
		}
		wrapper, operand, _ := e.Unwrap()
		newMutex, newRW := operand.NewMutex, operand.NewRW
		operand.NewMutex = func(t *numa.Topology) locks.Mutex { return locks.CountAcquisitions(newMutex(t), &excl) }
		if newRW != nil {
			operand.NewRW = func(t *numa.Topology) locks.RWMutex { return locks.CountRWAcquisitions(newRW(t), &excl, &shared) }
		}
		if e, err = registry.Wrap(wrapper, operand); err != nil {
			t.Fatal(err)
		}
		s := New(Config{Topo: topo, Locking: FromExec(e.ExecFactory(topo)), MaxBatch: 4, Buckets: 64, Capacity: 128})
		s.MSet(p, []uint64{1, 2, 3, 4, 5}, [][]byte{val(1), val(2), val(3), val(4), val(5)})
		check := func(what string, reads uint64, read func()) {
			e0, s0 := excl.Load(), shared.Load()
			read()
			if ge, gs := excl.Load()-e0, shared.Load()-s0; ge != reads*c.excl || gs != reads*c.shared {
				t.Errorf("%s: %s took %d exclusive and %d shared acquisitions, want %d and %d",
					c.name, what, ge, gs, reads*c.excl, reads*c.shared)
			}
		}
		check("a Get", 1, func() {
			if _, ok := s.Get(p, 1, nil); !ok {
				t.Fatalf("%s: Get missed", c.name)
			}
		})
		check("an MGet of two chunks", 2, func() {
			s.MGet(p, []uint64{1, 2, 3, 4, 5}, nil, make([]int, 5), make([]bool, 5))
		})
	}
}

func TestReadCombinedMGetUncontendedMatchesSharedChunks(t *testing.T) {
	// Every chunk takes one RLock of its own: a group of N lookups costs
	// exactly ceil(N/MaxBatch) RLock acquisitions — the shared-chunk
	// path, acquisition for acquisition.
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	const n, batch = 16, 4
	var excl, shared atomic.Uint64
	inner := locks.NewRWPerCluster(topo, locks.NewMCS(topo))
	x := locks.NewRWCombiningAdaptive(topo, locks.CountRWAcquisitions(inner, &excl, &shared))
	s := New(Config{
		Topo:     topo,
		Locking:  FromExec(func() locks.Executor { return x }),
		MaxBatch: batch,
		Buckets:  512,
		Capacity: 4096,
	})

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
	e0, s0 := excl.Load(), shared.Load()
	s.MGet(p, keys, dsts, lens, found)
	const ceil = (n + batch - 1) / batch
	if got := shared.Load() - s0; got != ceil {
		t.Errorf("MGet of %d keys took %d RLock acquisitions, want ceil(%d/%d)=%d", n, got, n, batch, ceil)
	}
	if got := excl.Load() - e0; got != 0 {
		t.Errorf("MGet took %d exclusive acquisitions, want 0 (hits only set reference bits)", got)
	}
	for i := range keys {
		if !found[i] || !bytes.Equal(dsts[i][:lens[i]], vals[i]) {
			t.Fatalf("key %d: got (%q,%v), want %q", keys[i], dsts[i][:lens[i]], found[i], vals[i])
		}
	}
}

func TestReadCombinedMGetSequentialEquivalence(t *testing.T) {
	// Byte-for-byte and stat-for-stat equivalence against the
	// shared-chunk path: a single-threaded op script must answer
	// identically and leave identical full statistics (coherence
	// charges included) whether chunks bracket RLock directly or run
	// through the combining reader-writer executor — its shared
	// closures and its solo exclusive combines reduce to exactly the
	// same lock script.
	topo := numa.New(2, 4)
	p := topo.Proc(0)
	build := func(combined bool) *Store {
		cfg := Config{
			Topo:     topo,
			MaxBatch: 5,
			Buckets:  256,
			Capacity: 32, // small: the script drives evictions
		}
		if combined {
			cfg.Locking = FromExec(func() locks.Executor {
				return locks.NewRWCombiningAdaptive(topo, locks.NewRWPerCluster(topo, locks.NewMCS(topo)))
			})
		} else {
			cfg.Locking = FromRW(func() locks.RWMutex {
				return locks.NewRWPerCluster(topo, locks.NewMCS(topo))
			})
		}
		return New(cfg)
	}
	base, comb := build(false), build(true)

	script := func(s *Store) ([]byte, Stats) {
		var out []byte
		keys := make([]uint64, 0, 48)
		for i := 0; i < 48; i++ { // overflows capacity: evictions
			keys = append(keys, uint64(i))
		}
		vals := make([][]byte, len(keys))
		for i := range vals {
			vals[i] = val(i)
		}
		s.MSet(p, keys, vals)

		// Reads with duplicates and misses, then single Gets to walk
		// the reference bits, then overwrites and deletes.
		rk := append(append([]uint64{}, keys[20:]...), keys[30], keys[31], 9999, 10001)
		dsts := make([][]byte, len(rk))
		lens := make([]int, len(rk))
		found := make([]bool, len(rk))
		for i := range dsts {
			dsts[i] = make([]byte, 32)
		}
		s.MGet(p, rk, dsts, lens, found)
		for i := range rk {
			out = append(out, byte(lens[i]))
			if found[i] {
				out = append(out, 1)
				out = append(out, dsts[i][:lens[i]]...)
			} else {
				out = append(out, 0)
			}
		}
		dst := make([]byte, 32)
		for i := 0; i < 24; i++ {
			n, ok := s.Get(p, uint64(24+i), dst)
			out = append(out, byte(n))
			if ok {
				out = append(out, 1)
				out = append(out, dst[:n]...)
			} else {
				out = append(out, 0)
			}
		}
		for i := 40; i < 48; i++ {
			s.Set(p, uint64(i), val(i*7))
		}
		for i := 44; i < 46; i++ {
			if s.Delete(p, uint64(i)) {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
		s.MGet(p, rk, dsts, lens, found)
		for i := range rk {
			out = append(out, byte(lens[i]), byte(btoi(found[i])))
		}
		return out, s.Snapshot()
	}

	wantBytes, wantStats := script(base)
	gotBytes, gotStats := script(comb)
	if !bytes.Equal(wantBytes, gotBytes) {
		t.Fatal("combining executor's op script answered differently from the shared-chunk path")
	}
	if gotStats != wantStats {
		t.Fatalf("stats diverged:\n shared-chunk: %+v\n combining:    %+v", wantStats, gotStats)
	}
	if err := base.checkLRU(); err != nil {
		t.Fatal(err)
	}
	if err := comb.checkLRU(); err != nil {
		t.Fatal(err)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestReadCombinedConcurrentWithWriters(t *testing.T) {
	// Batched shared readers against combined exclusive writers through
	// one construction: values must never tear and shard invariants
	// must hold. Runs under -race in CI, which also checks the
	// happens-before edges of the publication slots and the combined
	// closures.
	topo := numa.New(4, 12)
	s := New(Config{
		Topo: topo,
		Locking: FromExec(func() locks.Executor {
			return locks.NewRWCombiningAdaptive(topo, locks.NewRWPerCluster(topo, locks.NewMCS(topo)))
		}),
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
