package core_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
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
	return map[string]func(topo *numa.Topology) locks.Mutex{
		"c-bo-bo":   func(t *numa.Topology) locks.Mutex { return core.NewCBOBO(t) },
		"c-tkt-tkt": func(t *numa.Topology) locks.Mutex { return core.NewCTKTTKT(t) },
		"c-bo-mcs":  func(t *numa.Topology) locks.Mutex { return core.NewCBOMCS(t) },
		"c-tkt-mcs": func(t *numa.Topology) locks.Mutex { return core.NewCTKTMCS(t) },
		"c-mcs-mcs": func(t *numa.Topology) locks.Mutex { return core.NewCMCSMCS(t) },
		"c-bo-clh":  func(t *numa.Topology) locks.Mutex { return core.NewCBOCLH(t) },
	}
}

func abortableFactories() map[string]func(topo *numa.Topology) locks.TryMutex {
	return map[string]func(topo *numa.Topology) locks.TryMutex{
		"a-c-bo-bo":  func(t *numa.Topology) locks.TryMutex { return core.NewACBOBO(t) },
		"a-c-bo-clh": func(t *numa.Topology) locks.TryMutex { return core.NewACBOCLH(t) },
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

func TestCohortUnboundedHandoffStress(t *testing.T) {
	// The deeply unfair variant must still be correct.
	for name, mk := range map[string]func(topo *numa.Topology) locks.Mutex{
		"c-bo-mcs":  func(tp *numa.Topology) locks.Mutex { return core.NewCBOMCS(tp, core.WithHandoffLimit(-1)) },
		"c-tkt-tkt": func(tp *numa.Topology) locks.Mutex { return core.NewCTKTTKT(tp, core.WithHandoffLimit(-1)) },
	} {
		t.Run(name, func(t *testing.T) {
			topo := testTopo()
			locktest.Check(t, topo, locks.ExecFromMutex(mk(topo)), 0, stressProcs(), 200)
		})
	}
}

func TestCohortTinyHandoffLimitStress(t *testing.T) {
	// Limit 1 forces a global release nearly every operation,
	// hammering the global-path state machine.
	for name, mk := range map[string]func(topo *numa.Topology) locks.Mutex{
		"c-bo-bo":   func(tp *numa.Topology) locks.Mutex { return core.NewCBOBO(tp, core.WithHandoffLimit(1)) },
		"c-mcs-mcs": func(tp *numa.Topology) locks.Mutex { return core.NewCMCSMCS(tp, core.WithHandoffLimit(1)) },
	} {
		t.Run(name, func(t *testing.T) {
			topo := testTopo()
			locktest.Check(t, topo, locks.ExecFromMutex(mk(topo)), 0, stressProcs(), 200)
		})
	}
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
