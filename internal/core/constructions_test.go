package core_test

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
	"repro/internal/registry"
)

func testTopo() *numa.Topology { return numa.New(4, 64) }

func stressProcs() int {
	n := runtime.GOMAXPROCS(0) * 2
	if n > 64 {
		n = 64
	}
	if n < 4 {
		n = 4
	}
	return n
}

func cohortFactories() map[string]func(topo *numa.Topology) locks.Mutex {
	out := map[string]func(topo *numa.Topology) locks.Mutex{}
	for _, name := range []string{"c-bo-bo", "c-tkt-tkt", "c-bo-mcs", "c-tkt-mcs", "c-mcs-mcs", "c-bo-clh"} {
		out[name] = registry.MustLookup(name).NewMutex
	}
	return out
}

func abortableFactories() map[string]func(topo *numa.Topology) locks.TryMutex {
	return map[string]func(topo *numa.Topology) locks.TryMutex{
		"a-c-bo-bo":  registry.MustLookup("a-c-bo-bo").NewTry,
		"a-c-bo-clh": registry.MustLookup("a-c-bo-clh").NewTry,
	}
}

func TestCohortMutualExclusion(t *testing.T) {
	for name, mk := range cohortFactories() {
		t.Run(name, func(t *testing.T) {
			topo := testTopo()
			locktest.Check(t, topo, locks.ExecFromMutex(mk(topo)), 0, stressProcs(), 300)
		})
	}
}

func TestCohortSingleThreaded(t *testing.T) {
	for name, mk := range cohortFactories() {
		t.Run(name, func(t *testing.T) {
			topo := testTopo()
			m := mk(topo)
			p := topo.Proc(0)
			for i := 0; i < 200; i++ {
				m.Lock(p)
				m.Unlock(p)
			}
		})
	}
}

func TestCohortCrossClusterHandoff(t *testing.T) {
	// Procs 0 and 1 are on different clusters under round-robin, so
	// every transfer exercises the global release path.
	for name, mk := range cohortFactories() {
		t.Run(name, func(t *testing.T) {
			topo := testTopo()
			locktest.Check(t, topo, locks.ExecFromMutex(mk(topo)), 0, 2, 500)
		})
	}
}

func TestCohortSameClusterPair(t *testing.T) {
	// Two procs on one cluster: the common case is local hand-off.
	for name, mk := range cohortFactories() {
		t.Run(name, func(t *testing.T) {
			topo := numa.New(1, 8)
			locktest.Check(t, topo, locks.ExecFromMutex(mk(topo)), 0, 2, 2000)
		})
	}
}

func TestCohortOversubscribed(t *testing.T) {
	for name, mk := range cohortFactories() {
		t.Run(name, func(t *testing.T) {
			topo := numa.New(4, 64)
			locktest.Check(t, topo, locks.ExecFromMutex(mk(topo)), 0, 64, 100)
		})
	}
}

// handoffStress runs the named cohort locks, built with hand-off
// limit limit, through the mutual-exclusion harness.
func handoffStress(t *testing.T, limit int64, names ...string) {
	for _, name := range names {
		e, err := registry.Find(name, core.WithHandoffLimit(limit))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			topo := testTopo()
			locktest.Check(t, topo, locks.ExecFromMutex(e.NewMutex(topo)), 0, stressProcs(), 200)
		})
	}
}

func TestCohortUnboundedHandoffStress(t *testing.T) {
	// The deeply unfair variant must still be correct.
	handoffStress(t, -1, "c-bo-mcs", "c-tkt-tkt")
}

func TestCohortTinyHandoffLimitStress(t *testing.T) {
	// Limit 1 forces a global release nearly every operation,
	// hammering the global-path state machine.
	handoffStress(t, 1, "c-bo-bo", "c-mcs-mcs")
}

func TestAbortableCohortExclusionAndAborts(t *testing.T) {
	for name, mk := range abortableFactories() {
		t.Run(name, func(t *testing.T) {
			topo := numa.New(4, 32)
			s, a := locktest.CheckTryMutex(t, topo, mk(topo), 32, 200, 200*time.Microsecond)
			t.Logf("%s: %d successes, %d aborts", name, s, a)
		})
	}
}

func TestAbortableCohortGenerousPatienceNeverAborts(t *testing.T) {
	for name, mk := range abortableFactories() {
		t.Run(name, func(t *testing.T) {
			topo := numa.New(4, 16)
			m := mk(topo)
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					p := topo.Proc(id)
					for k := 0; k < 100; k++ {
						if !m.TryLockFor(p, time.Minute) {
							t.Errorf("aborted despite one-minute patience")
							return
						}
						m.Unlock(p)
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

func TestAbortableCohortHeldLockTimesOut(t *testing.T) {
	for name, mk := range abortableFactories() {
		t.Run(name, func(t *testing.T) {
			topo := testTopo()
			m := mk(topo)
			p0, p1 := topo.Proc(0), topo.Proc(1)
			if !m.TryLockFor(p0, time.Second) {
				t.Fatal("could not acquire free lock")
			}
			if m.TryLockFor(p1, 2*time.Millisecond) {
				t.Fatal("acquired a held lock")
			}
			m.Unlock(p0)
			if !m.TryLockFor(p1, time.Second) {
				t.Fatal("could not acquire after release")
			}
			m.Unlock(p1)
		})
	}
}

func TestAbortableCohortSameClusterAbortChurn(t *testing.T) {
	// All contention inside one cluster maximizes local hand-off and
	// abort interleavings — the hard part of §3.6.
	for name, mk := range abortableFactories() {
		t.Run(name, func(t *testing.T) {
			topo := numa.New(1, 16)
			s, a := locktest.CheckTryMutex(t, topo, mk(topo), 16, 300, 100*time.Microsecond)
			t.Logf("%s same-cluster churn: %d successes, %d aborts", name, s, a)
		})
	}
}

func TestAbortableCohortForeverPatience(t *testing.T) {
	// A patience past the clock's range waits as long as it takes; it
	// must not wrap into a deadline that has already passed.
	for name, mk := range abortableFactories() {
		t.Run(name, func(t *testing.T) {
			topo := numa.New(2, 4) // procs 0 and 2 share cluster 0
			l := mk(topo)
			p0, p2 := topo.Proc(0), topo.Proc(2)
			if !l.TryLockFor(p0, time.Second) {
				t.Fatal("uncontended TryLockFor failed")
			}
			released := make(chan struct{})
			go func() {
				time.Sleep(5 * time.Millisecond)
				l.Unlock(p0)
				close(released)
			}()
			if !l.TryLockFor(p2, math.MaxInt64) {
				t.Fatal("TryLockFor(math.MaxInt64) gave up on a lock released after 5 ms")
			}
			<-released
			l.Unlock(p2)
		})
	}
}

func TestAbortableCohortZeroPatience(t *testing.T) {
	// Zero patience may only succeed on an uncontended fast path; it
	// must never hang or corrupt state.
	for name, mk := range abortableFactories() {
		t.Run(name, func(t *testing.T) {
			topo := numa.New(4, 32)
			locktest.CheckTryMutex(t, topo, mk(topo), 16, 200, 0)
		})
	}
}

// TestCohortsAndBaselinesAllocateNothing: an uncontended acquisition
// and release of every cohort lock the registry lists (c-*, measured
// per Lock+Unlock) and of every abortable lock it builds — the cohort
// locks and the a-clh and hbo baselines, measured per
// TryLockFor+Unlock — allocates nothing, so a critical section costs
// no heap object. An abortable local lock reports whether it handed
// off locally, and the cohort releases the global lock itself when it
// did not, so a release builds no callback.
func TestCohortsAndBaselinesAllocateNothing(t *testing.T) {
	for _, name := range registry.Names() {
		e := registry.MustLookup(name)
		if e.NewTry == nil && !strings.HasPrefix(name, "c-") {
			continue
		}
		t.Run(name, func(t *testing.T) {
			topo := numa.New(2, 4)
			p := topo.Proc(0)
			var cycle func()
			if e.NewTry != nil {
				l := e.NewTry(topo)
				cycle = func() {
					if !l.TryLockFor(p, time.Second) {
						t.Fatal("TryLockFor failed on a free lock")
					}
					l.Unlock(p)
				}
			} else {
				l := e.NewMutex(topo)
				cycle = func() {
					l.Lock(p)
					l.Unlock(p)
				}
			}
			if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
				t.Fatalf("%v allocations per uncontended acquisition and release, want 0", allocs)
			}
		})
	}
}
