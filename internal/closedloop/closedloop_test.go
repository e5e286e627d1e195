package closedloop

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/numa"
)

func TestCheckRejectsEachSharedField(t *testing.T) {
	topo := numa.New(2, 4)
	for _, c := range []struct {
		topo    *numa.Topology
		threads int
		d       time.Duration
	}{
		{nil, 1, time.Millisecond},
		{topo, 0, time.Millisecond},
		{topo, 5, time.Millisecond},
		{topo, 1, 0},
	} {
		if err := Check(c.topo, c.threads, c.d); err == nil {
			t.Errorf("Check(%v, %d, %v) accepted", c.topo != nil, c.threads, c.d)
		}
	}
	if err := Check(topo, 4, time.Millisecond); err != nil {
		t.Errorf("Check rejected a valid run: %v", err)
	}
}

// TestRunBuildsEveryStepBeforeTheGate checks that each proc's step is
// built exactly once, in proc order, before any step runs, and that
// the window lasts at least its length. A worker the scheduler starts
// only after the window closed may run no step, so progress is
// checked in total.
func TestRunBuildsEveryStepBeforeTheGate(t *testing.T) {
	const threads = 4
	topo := numa.New(2, threads)
	var built int
	var early atomic.Bool
	counts := make([]struct {
		n uint64
		_ numa.Pad
	}, threads)
	d := 20 * time.Millisecond
	elapsed := Run(topo, threads, d, func(p *numa.Proc) func() bool {
		if p.ID() != built {
			t.Errorf("step %d built for proc %d", built, p.ID())
		}
		built++
		c := &counts[p.ID()]
		return func() bool {
			if built != threads {
				early.Store(true)
			}
			c.n++
			return true
		}
	})
	if built != threads {
		t.Fatalf("built %d steps, want %d", built, threads)
	}
	if early.Load() {
		t.Error("a step ran before every step was built")
	}
	if elapsed < d {
		t.Errorf("elapsed %v shorter than the %v window", elapsed, d)
	}
	var steps uint64
	for _, c := range counts {
		steps += c.n
	}
	if steps == 0 {
		t.Errorf("no step ran in %v", d)
	}
}

// TestRunRetiresAWorkerWhoseStepFails checks that a step returning
// false is never called again, while the window still runs its length.
func TestRunRetiresAWorkerWhoseStepFails(t *testing.T) {
	topo := numa.New(1, 2)
	var failed atomic.Uint64
	d := 20 * time.Millisecond
	elapsed := Run(topo, 2, d, func(p *numa.Proc) func() bool {
		if p.ID() == 0 {
			return func() bool { failed.Add(1); return false }
		}
		return func() bool { return true }
	})
	if n := failed.Load(); n > 1 {
		t.Errorf("failing step ran %d times, want at most 1", n)
	}
	if elapsed < d {
		t.Errorf("elapsed %v shorter than the %v window", elapsed, d)
	}
}

var sink []byte

// TestRunCollectsOnlyAboveTheFloor checks that Run forces a collection
// when setup left garbageFloor or more of new heap, and not below. A
// live buffer of twice the floor keeps the runtime's own heap goal
// above the garbage, so no automatic cycle collects it first.
func TestRunCollectsOnlyAboveTheFloor(t *testing.T) {
	topo := numa.New(1, 1)
	idle := func(*numa.Proc) func() bool { return func() bool { return false } }
	forced := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	live := make([]byte, 2*garbageFloor)
	runtime.GC()
	before := forced()
	Run(topo, 1, time.Millisecond, idle)
	if n := forced() - before; n != 0 {
		t.Errorf("Run forced %d collections over a clean heap, want 0", n)
	}
	sink = make([]byte, garbageFloor+garbageFloor/4)
	sink = nil
	before = forced()
	Run(topo, 1, time.Millisecond, idle)
	if n := forced() - before; n != 1 {
		t.Errorf("Run forced %d collections over %d bytes of garbage, want 1", n, garbageFloor+garbageFloor/4)
	}
	runtime.KeepAlive(live)
}
