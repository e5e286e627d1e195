package kvstore

import (
	"fmt"
	"testing"

	"sync/atomic"

	"repro/internal/locks"
	"repro/internal/numa"
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

// TestLockingEquivalence proves the five LockSource shapes are one
// seam: a store built from a pre-built lock, a lock factory, a
// pre-built or factory-made reader-writer lock, or an executor factory
// observes identical results and statistics on an identical op
// sequence, and every one of them really runs its critical sections
// through the lock it was handed. Subtests are named for what the
// source wraps.
func TestLockingEquivalence(t *testing.T) {
	variants := []struct {
		name string
		cfg  func(topo *numa.Topology, c *acqCounter) Config
	}{
		{"Lock", func(topo *numa.Topology, c *acqCounter) Config {
			return Config{Topo: topo, Locking: FromLock(c.mutex(locks.NewPthread()))}
		}},
		{"NewLock", func(topo *numa.Topology, c *acqCounter) Config {
			return Config{Topo: topo, Shards: 4, Locking: FromMutex(func() locks.Mutex { return c.mutex(locks.NewMCS(topo)) })}
		}},
		{"RWLock", func(topo *numa.Topology, c *acqCounter) Config {
			return Config{Topo: topo, Locking: FromRWLock(c.rw(locks.NewRWPerCluster(topo, locks.NewMCS(topo))))}
		}},
		{"NewRWLock", func(topo *numa.Topology, c *acqCounter) Config {
			return Config{Topo: topo, Shards: 4, Locking: FromRW(func() locks.RWMutex { return c.rw(locks.NewRWPerCluster(topo, locks.NewMCS(topo))) })}
		}},
		{"NewExec", func(topo *numa.Topology, c *acqCounter) Config {
			return Config{Topo: topo, Shards: 4, Locking: FromExec(func() locks.Executor {
				return locks.NewCombining(topo, c.mutex(locks.NewMCS(topo)))
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

// TestLockingSingleInstanceGuard pins the multi-shard validation: a
// pre-built single instance cannot back a sharded store.
func TestLockingSingleInstanceGuard(t *testing.T) {
	topo := numa.New(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for FromLock with 4 shards")
		}
	}()
	New(Config{Topo: topo, Shards: 4, Locking: FromLock(locks.NewPthread())})
}

// TestFromRegistry pins name resolution: a combining entry resolves to
// an executor source, an unknown name reports suggestions.
func TestFromRegistry(t *testing.T) {
	topo := numa.New(2, 4)
	for _, name := range []string{"pthread", "mcs", "rw-c-bo-mcs", "comb-mcs", "c-bo-mcs"} {
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
