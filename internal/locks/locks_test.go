package locks_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
)

// testTopo is shared by most tests: 4 clusters, enough procs for
// oversubscription beyond GOMAXPROCS.
func testTopo() *numa.Topology { return numa.New(4, 64) }

// stressProcs picks a proc count that exercises both true parallelism
// and goroutine oversubscription.
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

// factories enumerates every blocking lock in the package.
func factories() map[string]func(topo *numa.Topology) locks.Mutex {
	return map[string]func(topo *numa.Topology) locks.Mutex{
		"fib-bo":  func(*numa.Topology) locks.Mutex { return locks.NewBO() },
		"ticket":  func(topo *numa.Topology) locks.Mutex { return locks.NewTicket(topo) },
		"mcs":     func(topo *numa.Topology) locks.Mutex { return locks.NewMCS(topo) },
		"hbo":     func(*numa.Topology) locks.Mutex { return locks.NewHBO(locks.LBenchHBOConfig()) },
		"hclh":    func(topo *numa.Topology) locks.Mutex { return locks.NewHCLH(topo) },
		"cna":     func(topo *numa.Topology) locks.Mutex { return locks.NewCNA(topo) },
		"fc-mcs":  func(topo *numa.Topology) locks.Mutex { return locks.NewFCMCS(topo) },
		"pthread": func(*numa.Topology) locks.Mutex { return locks.NewPthread() },
	}
}

func TestMutualExclusionAllLocks(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			topo := testTopo()
			locktest.Check(t, topo, locks.ExecFromMutex(mk(topo)), 0, stressProcs(), 300)
		})
	}
}

func TestSingleThreadedReacquire(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			topo := testTopo()
			m := mk(topo)
			p := topo.Proc(0)
			for i := 0; i < 100; i++ {
				m.Lock(p)
				m.Unlock(p)
			}
		})
	}
}

func TestTwoProcHandoffAllLocks(t *testing.T) {
	for name, mk := range factories() {
		t.Run(name, func(t *testing.T) {
			topo := testTopo()
			locktest.Check(t, topo, locks.ExecFromMutex(mk(topo)), 0, 2, 500)
		})
	}
}

func TestOversubscribedStress(t *testing.T) {
	// More goroutines than GOMAXPROCS forces the Poll/Gosched
	// escalation paths; queue locks deadlock here if spins never yield.
	for _, name := range []string{"mcs", "hclh", "fc-mcs", "ticket"} {
		mk := factories()[name]
		t.Run(name, func(t *testing.T) {
			topo := numa.New(4, 64)
			locktest.Check(t, topo, locks.ExecFromMutex(mk(topo)), 0, 64, 100)
		})
	}
}

func TestTicketFIFOOrder(t *testing.T) {
	topo := testTopo()
	l := locks.NewTicket(topo)
	p := topo.Proc(0)
	for i := 0; i < 5; i++ {
		l.Lock(p)
		req, grant := l.Holders()
		if req != uint64(i+1) || grant != uint64(i) {
			t.Fatalf("iteration %d: counters (req=%d, grant=%d)", i, req, grant)
		}
		l.Unlock(p)
	}
}

func TestHBOTryLockAborts(t *testing.T) {
	topo := testTopo()
	l := locks.NewHBO(locks.AppHBOConfig())
	p0, p1 := topo.Proc(0), topo.Proc(1)
	l.Lock(p0)
	if l.TryLockFor(p1, time.Millisecond) {
		t.Fatal("A-HBO acquired a held lock")
	}
	l.Unlock(p0)
	if !l.TryLockFor(p1, time.Millisecond) {
		t.Fatal("A-HBO failed on a free lock")
	}
	l.Unlock(p1)
}

func TestHBOConcurrentAborts(t *testing.T) {
	topo := numa.New(4, 32)
	l := locks.NewHBO(locks.LBenchHBOConfig())
	successes, aborts := locktest.CheckTryMutex(t, topo, l, 32, 200, 200*time.Microsecond)
	t.Logf("A-HBO stress: %d successes, %d aborts", successes, aborts)
}

func TestFCMCSSingleClusterBatches(t *testing.T) {
	// All threads on one cluster: a single combiner should service
	// everyone; checks the publication-list path thoroughly.
	topo := numa.New(1, 16)
	l := locks.NewFCMCS(topo)
	locktest.Check(t, topo, locks.ExecFromMutex(l), 0, 16, 300)
}

func TestHCLHSingleProcPerCluster(t *testing.T) {
	// Degenerate batches of size 1: every thread is its own master.
	topo := numa.New(4, 4)
	l := locks.NewHCLH(topo)
	locktest.Check(t, topo, locks.ExecFromMutex(l), 0, 4, 300)
}

func TestMCSUnlockWaitsForLaggingSuccessor(t *testing.T) {
	// Covered implicitly by stress, but verify the specific interleave:
	// successor swaps tail, then holder unlocks before the link is set.
	topo := testTopo()
	l := locks.NewMCS(topo)
	locktest.Check(t, topo, locks.ExecFromMutex(l), 0, 2, 2000)
}
