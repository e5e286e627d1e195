package kvstore

import (
	"strings"
	"testing"

	"repro/internal/locks"
	"repro/internal/numa"
)

// TestRemovedMemoryModesRejected pins the compat seam: the removed
// modes fail to parse with an error that says they were removed, the
// surviving names parse, and the four ignored Config fields change
// nothing about the store they are set on.
func TestRemovedMemoryModesRejected(t *testing.T) {
	if _, err := ParseValueMemory("arena"); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Errorf(`ParseValueMemory("arena") = %v, want an error naming the removal`, err)
	}
	if _, err := ParseIndexMemory("compact"); err == nil || !strings.Contains(err.Error(), "removed") {
		t.Errorf(`ParseIndexMemory("compact") = %v, want an error naming the removal`, err)
	}
	vm, err := ParseValueMemory("heap")
	if err != nil {
		t.Error(err)
	}
	im, err := ParseIndexMemory("pointer")
	if err != nil {
		t.Error(err)
	}

	topo := numa.New(2, 4)
	run := func(cfg Config) Stats {
		cfg.Topo, cfg.Shards, cfg.Capacity = topo, 2, 8
		cfg.Locking = FromMutex(func() locks.Mutex { return locks.NewPthread() })
		s := New(cfg)
		p, dst := topo.Proc(1), make([]byte, 8)
		for k := uint64(0); k < 40; k++ {
			s.Set(p, k%13, []byte{byte(k)})
			s.Get(p, k%7, dst)
			s.Delete(p, k%5)
		}
		return s.Snapshot()
	}
	plain := run(Config{})
	if compat := run(Config{Placement: HashMod, ValueMemory: vm, IndexMemory: im, ArenaBytes: 1 << 20}); compat != plain {
		t.Errorf("compat fields changed the store: %+v, zero-valued config %+v", compat, plain)
	}
	if plain.Evictions == 0 || plain.Hits == 0 || plain.Misses == 0 {
		t.Errorf("op sequence too tame to tell stores apart: %+v", plain)
	}
}
