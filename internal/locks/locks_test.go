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
		"bo":      func(*numa.Topology) locks.Mutex { return locks.NewBO(locks.DefaultBOConfig()) },
		"fib-bo":  func(*numa.Topology) locks.Mutex { return locks.NewBO(locks.FibBOConfig()) },
		"ticket":  func(topo *numa.Topology) locks.Mutex { return locks.NewTicket(topo) },
		"mcs":     func(topo *numa.Topology) locks.Mutex { return locks.NewMCS(topo) },
		"hbo":     func(*numa.Topology) locks.Mutex { return locks.NewHBO(locks.LBenchHBOConfig()) },
		"hclh":    func(topo *numa.Topology) locks.Mutex { return locks.NewHCLH(topo) },
		"cna":     func(topo *numa.Topology) locks.Mutex { return locks.NewCNA(topo) },
		"fc-mcs":  func(topo *numa.Topology) locks.Mutex { return locks.NewFCMCS(topo) },
		"pthread": func(*numa.Topology) locks.Mutex { return locks.NewPthread() },
		"a-clh":   func(topo *numa.Topology) locks.Mutex { return locks.NewACLH(topo) },
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

func TestBOTryLockForTimesOut(t *testing.T) {
	topo := testTopo()
	l := locks.NewBO(locks.DefaultBOConfig())
	p0, p1 := topo.Proc(0), topo.Proc(1)
	l.Lock(p0)
	start := time.Now()
	if l.TryLockFor(p1, 5*time.Millisecond) {
		t.Fatal("TryLockFor succeeded while lock held")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("TryLockFor waited far beyond its patience")
	}
	l.Unlock(p0)
	if !l.TryLockFor(p1, time.Second) {
		t.Fatal("TryLockFor failed on a free lock")
	}
	l.Unlock(p1)
}

func TestHBOTracksOwnerCluster(t *testing.T) {
	topo := testTopo()
	l := locks.NewHBO(locks.LBenchHBOConfig())
	if l.OwnerCluster() != -1 {
		t.Fatal("fresh HBO should be free")
	}
	p := topo.Proc(2) // cluster 2
	l.Lock(p)
	if got := l.OwnerCluster(); got != 2 {
		t.Fatalf("OwnerCluster = %d, want 2", got)
	}
	l.Unlock(p)
	if l.OwnerCluster() != -1 {
		t.Fatal("HBO should be free after unlock")
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

func TestACLHAbortThenReacquire(t *testing.T) {
	topo := testTopo()
	l := locks.NewACLH(topo)
	p0, p1, p2 := topo.Proc(0), topo.Proc(1), topo.Proc(2)
	l.Lock(p0)
	// p1 aborts, leaving its node in the queue.
	if l.TryLockFor(p1, 2*time.Millisecond) {
		t.Fatal("p1 acquired a held lock")
	}
	// p2 enqueues behind p1's abandoned node, then p0 releases; p2 must
	// skip the aborted node and acquire.
	acquired := make(chan struct{})
	go func() {
		l.Lock(p2)
		close(acquired)
	}()
	time.Sleep(5 * time.Millisecond)
	l.Unlock(p0)
	select {
	case <-acquired:
	case <-time.After(10 * time.Second):
		t.Fatal("p2 never acquired past the aborted node")
	}
	l.Unlock(p2)
	// The aborter itself must be able to come back.
	if !l.TryLockFor(p1, time.Second) {
		t.Fatal("aborter could not reacquire a free lock")
	}
	l.Unlock(p1)
}

func TestACLHChainOfAborts(t *testing.T) {
	topo := testTopo()
	l := locks.NewACLH(topo)
	p0 := topo.Proc(0)
	l.Lock(p0)
	// Several waiters abort in sequence, each stacking an abandoned
	// node onto the queue.
	for i := 1; i <= 4; i++ {
		if l.TryLockFor(topo.Proc(i), time.Millisecond) {
			t.Fatalf("proc %d acquired a held lock", i)
		}
	}
	l.Unlock(p0)
	// A fresh thread must traverse all four aborted nodes.
	if !l.TryLockFor(topo.Proc(5), 5*time.Second) {
		t.Fatal("could not acquire past a chain of aborted nodes")
	}
	l.Unlock(topo.Proc(5))
}

func TestACLHConcurrentAborts(t *testing.T) {
	topo := numa.New(4, 32)
	l := locks.NewACLH(topo)
	successes, aborts := locktest.CheckTryMutex(t, topo, l, 32, 200, 200*time.Microsecond)
	t.Logf("A-CLH stress: %d successes, %d aborts", successes, aborts)
}

func TestHBOConcurrentAborts(t *testing.T) {
	topo := numa.New(4, 32)
	l := locks.NewHBO(locks.LBenchHBOConfig())
	successes, aborts := locktest.CheckTryMutex(t, topo, l, 32, 200, 200*time.Microsecond)
	t.Logf("A-HBO stress: %d successes, %d aborts", successes, aborts)
}

func TestBOConcurrentAborts(t *testing.T) {
	topo := numa.New(4, 32)
	l := locks.NewBO(locks.DefaultBOConfig())
	successes, aborts := locktest.CheckTryMutex(t, topo, l, 32, 200, 200*time.Microsecond)
	t.Logf("A-BO stress: %d successes, %d aborts", successes, aborts)
}

func TestHCLHWindowValidation(t *testing.T) {
	topo := testTopo()
	l := locks.NewHCLHWindow(topo, -5) // clamps, must not panic
	locktest.Check(t, topo, locks.ExecFromMutex(l), 0, 8, 50)
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
