package registry

import (
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
)

// The sharded store builds many lock instances from one registry name,
// so the factories must be repeatable, and every instance they produce
// must be an independent, correct lock.

// entries builds every canonical name, in presentation order.
func entries() []Entry {
	var out []Entry
	for _, name := range Names() {
		out = append(out, MustLookup(name))
	}
	return out
}

// blocking is entries filtered to those with a blocking face.
func blocking() []Entry {
	var out []Entry
	for _, e := range entries() {
		if e.NewMutex != nil {
			out = append(out, e)
		}
	}
	return out
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("duplicate registry name %q", name)
		}
		seen[name] = true
	}
	names := Names()
	names[0] = "mutated"
	if Names()[0] == "mutated" {
		t.Error("Names() exposes internal state")
	}
}

func TestMutexFactoriesSmoke(t *testing.T) {
	topo := numa.New(4, 4)
	for _, e := range blocking() {
		t.Run(e.Name, func(t *testing.T) {
			locktest.Check(t, topo, locks.ExecFromMutex(e.NewMutex(topo)), 0, 4, 200)
		})
	}
}

func TestTryFactoriesSmoke(t *testing.T) {
	// Like TestFactoriesRepeatable, for the abortable face: two
	// instances are distinct and independent, so a held one does not
	// make the other time out.
	topo := numa.New(4, 4)
	p := topo.Proc(0)
	for _, e := range entries() {
		if e.NewTry == nil {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			a, b := e.NewTry(topo), e.NewTry(topo)
			if a == b {
				t.Fatal("NewTry returned the same instance twice")
			}
			if !a.TryLockFor(p, time.Second) || !b.TryLockFor(p, 50*time.Millisecond) {
				t.Fatal("a fresh instance timed out while another was held")
			}
			b.Unlock(p)
			a.Unlock(p)
		})
	}
}

func TestFactoriesRepeatable(t *testing.T) {
	// Per-shard construction calls the constructor many times;
	// instances must be distinct and independent: holding one must not
	// block acquiring another.
	topo := numa.New(4, 4)
	for _, e := range blocking() {
		a, b := e.NewMutex(topo), e.NewMutex(topo)
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
	for _, e := range entries() {
		if lockable := e.NewMutex != nil || e.NewExec != nil; lockable != (e.ExecFactory(topo) != nil) {
			t.Errorf("%s: ExecFactory nil is %v, want %v", e.Name, !lockable, lockable)
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
	// The store posts reads to ExecShared of one executor per shard;
	// instances must be distinct and independent, shared-mode and
	// exclusive-adapted alike.
	topo := numa.New(4, 4)
	p := topo.Proc(0)
	for _, e := range blocking() {
		f := e.ExecFactory(topo)
		a, b := f(), f()
		if a == b {
			t.Errorf("%s: exec factory returned the same instance twice", e.Name)
			continue
		}
		ran := false
		a.Exec(p, func() {
			b.ExecShared(p, func() { ran = true }) // would deadlock if a and b shared state
		})
		if !ran {
			t.Errorf("%s: shared closure under an independent executor never ran", e.Name)
		}
	}
}
