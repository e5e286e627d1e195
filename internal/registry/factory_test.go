package registry

import (
	"testing"
	"time"

	"repro/internal/locktest"
	"repro/internal/numa"
)

// The sharded store builds many lock instances from one registry name,
// so the factories must be repeatable, and every instance they produce
// must be an independent, correct lock.

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.Name] {
			t.Errorf("duplicate registry name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestMutexFactoriesSmoke(t *testing.T) {
	topo := numa.New(4, 4)
	for _, e := range Blocking() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			f := e.MutexFactory(topo)
			if f == nil {
				t.Fatal("Blocking() entry has nil MutexFactory")
			}
			locktest.CheckMutex(t, topo, f(), 4, 200)
		})
	}
}

func TestTryFactoriesSmoke(t *testing.T) {
	topo := numa.New(4, 4)
	for _, e := range Abortable() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			f := e.TryFactory(topo)
			if f == nil {
				t.Fatal("Abortable() entry has nil TryFactory")
			}
			locktest.CheckTryMutex(t, topo, f(), 4, 200, 50*time.Millisecond)
		})
	}
}

func TestFactoriesRepeatable(t *testing.T) {
	// Per-shard construction calls the factory many times; instances
	// must be distinct and independent: holding one must not block
	// acquiring another.
	topo := numa.New(4, 4)
	for _, e := range Blocking() {
		f := e.MutexFactory(topo)
		a, b := f(), f()
		if a == b {
			t.Errorf("%s: factory returned the same instance twice", e.Name)
			continue
		}
		p := topo.Proc(0)
		a.Lock(p)
		b.Lock(p) // would deadlock if a and b shared state
		b.Unlock(p)
		a.Unlock(p)
	}
}

func TestFactoryNilForMissingInterface(t *testing.T) {
	topo := numa.New(2, 2)
	for _, e := range All() {
		if e.NewMutex == nil && e.MutexFactory(topo) != nil {
			t.Errorf("%s: MutexFactory non-nil without NewMutex", e.Name)
		}
		if e.NewTry == nil && e.TryFactory(topo) != nil {
			t.Errorf("%s: TryFactory non-nil without NewTry", e.Name)
		}
		if e.NewMutex == nil && e.NewExec == nil && e.ExecFactory(topo) != nil {
			t.Errorf("%s: ExecFactory non-nil without NewMutex or NewExec", e.Name)
		}
	}
}

func TestExecFactoriesRepeatable(t *testing.T) {
	// The batched kvstore builds one executor per shard; instances must
	// be distinct and independent, combining and adapted alike.
	topo := numa.New(4, 4)
	p := topo.Proc(0)
	for _, name := range []string{"comb-a-c-bo-mcs", "comb-a-mcs", "mcs"} {
		e := MustLookup(name)
		f := e.ExecFactory(topo)
		if f == nil {
			t.Errorf("%s: nil ExecFactory", name)
			continue
		}
		a, b := f(), f()
		if a == b {
			t.Errorf("%s: exec factory returned the same instance twice", name)
			continue
		}
		// Nested Exec across *distinct* instances must not deadlock —
		// shared state between them would.
		ran := false
		a.Exec(p, func() {
			b.Exec(p, func() { ran = true })
		})
		if !ran {
			t.Errorf("%s: closure through two independent executors never ran", name)
		}
	}
}

func TestRWFactoriesRepeatable(t *testing.T) {
	// The RW kvstore path builds one RW lock per shard; instances must
	// be distinct and independent, native and adapted alike.
	topo := numa.New(4, 4)
	for _, e := range Blocking() {
		f := e.RWFactory(topo)
		if f == nil {
			t.Errorf("%s: blocking entry has nil RWFactory", e.Name)
			continue
		}
		a, b := f(), f()
		if a == b {
			t.Errorf("%s: RW factory returned the same instance twice", e.Name)
			continue
		}
		p := topo.Proc(0)
		a.Lock(p)
		b.RLock(p) // would deadlock if a and b shared state
		b.RUnlock(p)
		a.Unlock(p)
	}
}

func TestBuildRWMutexes(t *testing.T) {
	topo := numa.New(4, 4)
	for _, name := range []string{"rw-cna", "mcs"} { // native and adapted
		ms := MustLookup(name).BuildRWMutexes(topo, 4)
		if len(ms) != 4 {
			t.Fatalf("%s: BuildRWMutexes returned %d locks, want 4", name, len(ms))
		}
		for i, m := range ms {
			if m == nil {
				t.Fatalf("%s: instance %d is nil", name, i)
			}
			for j := i + 1; j < len(ms); j++ {
				if m == ms[j] {
					t.Fatalf("%s: instances %d and %d are the same lock", name, i, j)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BuildRWMutexes on a try-only entry did not panic")
		}
	}()
	MustLookup("a-clh").BuildRWMutexes(topo, 1)
}

func TestBuildMutexes(t *testing.T) {
	topo := numa.New(4, 4)
	e := MustLookup("c-bo-mcs")
	ms := e.BuildMutexes(topo, 8)
	if len(ms) != 8 {
		t.Fatalf("BuildMutexes returned %d locks, want 8", len(ms))
	}
	for i, m := range ms {
		if m == nil {
			t.Fatalf("instance %d is nil", i)
		}
		for j := i + 1; j < len(ms); j++ {
			if m == ms[j] {
				t.Fatalf("instances %d and %d are the same lock", i, j)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("BuildMutexes on a try-only entry did not panic")
		}
	}()
	MustLookup("a-clh").BuildMutexes(topo, 1)
}
