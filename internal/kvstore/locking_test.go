package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

// driveOps runs a fixed, deterministic mixed workload against the
// store from several procs in turn (single-goroutine, so the op order
// is identical across runs) and returns a digest of every observable:
// each get's (len, found), each delete's presence, the final item
// count and the final statistics snapshot.
func driveOps(t *testing.T, topo *numa.Topology, s *Store) string {
	t.Helper()
	out := ""
	dst := make([]byte, 64)
	val := make([]byte, 32)
	for round := 0; round < 4; round++ {
		for id := 0; id < topo.MaxProcs(); id++ {
			p := topo.Proc(id)
			base := uint64(round*100 + id*10)
			for k := uint64(0); k < 8; k++ {
				val[0] = byte(base + k)
				s.Set(p, base+k, val[:8+k])
			}
			for k := uint64(0); k < 12; k++ {
				n, ok := s.Get(p, base+k, dst)
				out += fmt.Sprintf("g%d,%v;", n, ok)
			}
			out += fmt.Sprintf("d%v;", s.Delete(p, base))
			out += fmt.Sprintf("d%v;", s.Delete(p, base+99))
		}
		// Batched path: same keys through MGet/MSet/MDeleteEach.
		p := topo.Proc(round % topo.MaxProcs())
		keys := make([]uint64, 32)
		vals := make([][]byte, 32)
		for i := range keys {
			keys[i] = uint64(round*100 + i)
			vals[i] = val[:4+i%8]
		}
		s.MSet(p, keys, vals)
		lens := make([]int, len(keys))
		found := make([]bool, len(keys))
		s.MGet(p, keys, nil, lens, found)
		for i := range keys {
			out += fmt.Sprintf("m%d,%v;", lens[i], found[i])
		}
		del := s.MDeleteEach(p, keys[:8], found[:8])
		out += fmt.Sprintf("D%d,%v;", del, found[:8])
	}
	st := s.Snapshot()
	out += fmt.Sprintf("len=%d gets=%d sets=%d hits=%d misses=%d evictions=%d",
		s.Len(topo.Proc(0)), st.Gets, st.Sets, st.Hits, st.Misses, st.Evictions)
	return out
}

// TestLockingEquivalence proves the LockSource shapes are one seam: a
// store built from one lock, a lock factory, one or a factory of
// reader-writer locks, or an executor factory observes identical
// results and statistics on an identical op sequence, and every one of
// them really runs its critical sections through the lock it was
// handed. Subtests are named for what the source wraps.
func TestLockingEquivalence(t *testing.T) {
	variants := []struct {
		name string
		cfg  func(topo *numa.Topology, c *acqCounter) Config
	}{
		{"Lock", func(topo *numa.Topology, c *acqCounter) Config {
			return Config{Topo: topo, Locking: FromMutex(func() locks.Mutex { return c.mutex(locks.NewPthread()) })}
		}},
		{"NewLock", func(topo *numa.Topology, c *acqCounter) Config {
			return Config{Topo: topo, Shards: 4, Locking: FromMutex(func() locks.Mutex { return c.mutex(locks.NewMCS(topo)) })}
		}},
		{"RWLock", func(topo *numa.Topology, c *acqCounter) Config {
			return Config{Topo: topo, Locking: FromRW(func() locks.RWMutex { return c.rw(locks.NewRWPerCluster(topo, locks.NewMCS(topo))) })}
		}},
		{"NewRWLock", func(topo *numa.Topology, c *acqCounter) Config {
			return Config{Topo: topo, Shards: 4, Locking: FromRW(func() locks.RWMutex { return c.rw(locks.NewRWPerCluster(topo, locks.NewMCS(topo))) })}
		}},
		{"NewExec", func(topo *numa.Topology, c *acqCounter) Config {
			return Config{Topo: topo, Shards: 4, Locking: FromExec(func() locks.Executor {
				return locks.NewCombiningAdaptive(topo, c.mutex(locks.NewMCS(topo)))
			})}
		}},
	}
	want := ""
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			topo := numa.New(2, 4)
			var count acqCounter
			got := driveOps(t, topo, New(v.cfg(topo, &count)))
			if want == "" {
				want = got
			}
			if got != want {
				t.Fatalf("behavior diverged from the %s source:\nwant: %s\ngot:  %s", variants[0].name, want, got)
			}
			if count.total() == 0 {
				t.Fatalf("acquisition counter never fired — interposition broken")
			}
		})
	}
}

// acqCounter interposes locks.CountAcquisitions /
// locks.CountRWAcquisitions on every lock a config variant builds,
// summing acquisitions across all shards of a store.
type acqCounter struct {
	excl, shared atomic.Uint64
}

func (c *acqCounter) mutex(m locks.Mutex) locks.Mutex {
	return locks.CountAcquisitions(m, &c.excl)
}

func (c *acqCounter) rw(l locks.RWMutex) locks.RWMutex {
	return locks.CountRWAcquisitions(l, &c.excl, &c.shared)
}

func (c *acqCounter) total() uint64 {
	return c.excl.Load() + c.shared.Load()
}

// TestEverySourceIsOneExecutor runs a fixed single-key and batched
// script against a reference map over six sources, each backing a
// 2-shard store through the one executor seam, and pins what the seam
// must not lose: reads share exactly where the source's lock shares,
// and on the counted direct sources every single-key Get, Set and Delete is
// one acquisition — shared for a Get where reads share, exclusive
// otherwise.
func TestEverySourceIsOneExecutor(t *testing.T) {
	type counters struct{ excl, shared atomic.Uint64 }
	cases := []struct {
		name    string
		src     func(topo *numa.Topology, c *counters) LockSource
		counted bool
		shared  bool
	}{
		{"FromMutex(c-bo-mcs)", func(topo *numa.Topology, c *counters) LockSource {
			return FromMutex(func() locks.Mutex {
				return locks.CountAcquisitions(registry.MustLookup("c-bo-mcs").NewMutex(topo), &c.excl)
			})
		}, true, false},
		{"FromRW(rw-c-bo-mcs)", func(topo *numa.Topology, c *counters) LockSource {
			return FromRW(func() locks.RWMutex {
				return locks.CountRWAcquisitions(registry.MustLookup("rw-c-bo-mcs").NewRW(topo), &c.excl, &c.shared)
			})
		}, true, true},
		{"FromExec(comb-a/c-bo-mcs)", func(topo *numa.Topology, _ *counters) LockSource {
			return FromExec(func() locks.Executor {
				return locks.NewCombiningAdaptive(topo, registry.MustLookup("c-bo-mcs").NewMutex(topo))
			})
		}, false, false},
		{"FromExec(comb-a-rw-c-bo-mcs)", func(topo *numa.Topology, _ *counters) LockSource {
			return FromExec(registry.MustLookup("comb-a-rw-c-bo-mcs").ExecFactory(topo))
		}, false, true},
		{"FromExec(exclusive-only)", func(_ *numa.Topology, c *counters) LockSource {
			return FromExec(func() locks.Executor { return &soloExec{n: &c.excl} })
		}, true, false},
		{"FromRegistry(pthread)", func(topo *numa.Topology, _ *counters) LockSource {
			src, err := FromRegistry(topo, "pthread")
			if err != nil {
				t.Fatal(err)
			}
			return src
		}, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := numa.New(2, 4)
			var c counters
			// A hit only sets its reference bit, so each Get is exactly
			// one acquisition.
			s := New(Config{Topo: topo, Shards: 2, Locking: tc.src(topo, &c), Buckets: 64})
			// one checks that op took exactly one acquisition, in the
			// shared mode when shared is set.
			one := func(op string, shared bool, run func()) {
				e0, s0 := c.excl.Load(), c.shared.Load()
				run()
				if !tc.counted {
					return
				}
				wantE, wantS := uint64(1), uint64(0)
				if shared {
					wantE, wantS = 0, 1
				}
				if de, ds := c.excl.Load()-e0, c.shared.Load()-s0; de != wantE || ds != wantS {
					t.Fatalf("%s took %d exclusive + %d shared acquisitions, want %d + %d", op, de, ds, wantE, wantS)
				}
			}
			model := map[uint64][]byte{}
			dst := make([]byte, 16)
			for i := 0; i < 240; i++ {
				p := topo.Proc(i % topo.MaxProcs())
				k := uint64(i*7) % 40
				switch i % 4 {
				case 0, 1:
					v := []byte(fmt.Sprintf("v%d", i))
					one("Set", false, func() { s.Set(p, k, v) })
					model[k] = v
				case 2:
					var n int
					var ok bool
					one("Get", tc.shared, func() { n, ok = s.Get(p, k, dst) })
					if want, has := model[k]; ok != has || !bytes.Equal(dst[:n], want) {
						t.Fatalf("Get(%d) = %q,%v, want %q,%v", k, dst[:n], ok, want, has)
					}
				case 3:
					var ok bool
					one("Delete", false, func() { ok = s.Delete(p, k) })
					if _, has := model[k]; ok != has {
						t.Fatalf("Delete(%d) = %v, want %v", k, ok, has)
					}
					delete(model, k)
				}
			}
			p := topo.Proc(1)
			keys := make([]uint64, 40)
			for i := range keys {
				keys[i] = uint64(i)
			}
			bufs := make([][]byte, len(keys))
			for i := range bufs {
				bufs[i] = make([]byte, 16)
			}
			lens, found := make([]int, len(keys)), make([]bool, len(keys))
			s.MGet(p, keys, bufs, lens, found)
			for i, k := range keys {
				if want, has := model[k]; found[i] != has || !bytes.Equal(bufs[i][:lens[i]], want) {
					t.Fatalf("MGet key %d = %q,%v, want %q,%v", k, bufs[i][:lens[i]], found[i], want, has)
				}
			}
			if got := s.Len(p); got != len(model) {
				t.Fatalf("Len = %d, want %d", got, len(model))
			}
		})
	}
}

// soloExec is an executor with no shared mode: a mutex around each
// closure, counted into n.
type soloExec struct {
	mu sync.Mutex
	n  *atomic.Uint64
}

func (x *soloExec) Exec(_ *numa.Proc, fn func()) {
	x.n.Add(1)
	x.mu.Lock()
	fn()
	x.mu.Unlock()
}

// TestFromRegistry pins name resolution: a combining entry resolves to
// an executor source, an unknown name reports suggestions.
func TestFromRegistry(t *testing.T) {
	topo := numa.New(2, 4)
	for _, name := range []string{"pthread", "mcs", "rw-c-bo-mcs", "comb-a-mcs", "c-bo-mcs"} {
		src, err := FromRegistry(topo, name)
		if err != nil {
			t.Fatalf("FromRegistry(%q): %v", name, err)
		}
		s := New(Config{Topo: topo, Shards: 2, Locking: src})
		p := topo.Proc(0)
		s.Set(p, 7, []byte("v"))
		dst := make([]byte, 8)
		if n, ok := s.Get(p, 7, dst); !ok || n != 1 || dst[0] != 'v' {
			t.Fatalf("FromRegistry(%q) store misbehaves: n=%d ok=%v", name, n, ok)
		}
	}
	if _, err := FromRegistry(topo, "msc"); err == nil {
		t.Fatalf("expected error for unknown lock name")
	}
}
