// Package locktest provides the reusable correctness harnesses for the
// lock implementations, driven through the same Proc handles the real
// harnesses use. Check is the one mutual-exclusion harness: every lock
// reaches it as a locks.RWExecutor (a blocking lock through
// locks.ExecFromMutex, a reader-writer lock through
// locks.ExecFromRWMutex, an executor as is). CheckFairness runs the
// same loop under skewed quotas, and CheckTryMutex covers abortable
// attempts. Every lock package's tests build on these.
package locktest

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/spin"
)

// TB is the slice of testing.TB the harnesses consume; *testing.T and
// *testing.B satisfy it. Narrowing the dependency to an interface lets
// this package's own tests drive every harness with a recording
// implementation and assert that a deliberately broken lock makes the
// harness fail — the harnesses themselves are load-bearing CI gates,
// so they get the same adversarial coverage as the locks. A TB's
// Fatal/Fatalf must stop the calling goroutine (as testing does via
// runtime.Goexit): harness code does not continue past a fatal report.
type TB interface {
	Helper()
	Fatal(args ...any)
	Fatalf(format string, args ...any)
}

// shared is the critical-section state a harness protects. a and b
// are deliberately non-atomic counters: any mutual-exclusion violation
// shows up both as a torn invariant and as a data race under the race
// detector.
type shared struct {
	inCS       atomic.Int32
	violations atomic.Int64
	torn       atomic.Int64 // half-done updates seen from shared mode
	a, b       int64
}

// Every lingerEvery-th critical section of a worker stays open, its
// update half done, for up to lingerFor. Two entrants overlap inside a
// plain section only if they hit the same few nanoseconds, so on two
// CPUs a lock that excludes nobody can run a whole quota unobserved;
// with sections held open, whatever the lock wrongly lets in arrives
// while someone is inside. A correct lock just holds each sampled
// section for the full window, which is what bounds the sample rate.
const (
	lingerEvery = 1024
	lingerFor   = 200 * time.Microsecond
)

// enter performs a worker's k-th guarded critical section.
func (s *shared) enter(k int) {
	if s.inCS.Add(1) != 1 {
		s.violations.Add(1)
	}
	s.a++
	if s.a != s.b+1 {
		s.violations.Add(1)
	}
	if k%lingerEvery == 0 {
		// Leave as soon as an intruder has been recorded — by itself on
		// entry, or by observe — or once the window has proved that
		// nothing else gets in.
		deadline := time.Now().Add(lingerFor)
		for i := 0; s.inCS.Load() == 1 && s.torn.Load() == 0 && time.Now().Before(deadline); i++ {
			spin.Poll(i)
		}
	}
	s.b++
	s.inCS.Add(-1)
}

// observe is one shared-mode read of the state: the two counters must
// be equal — an exclusive section's update is never visible half done.
func (s *shared) observe() {
	if s.a != s.b {
		s.torn.Add(1)
	}
}

// harnessDeadline bounds every quota-based harness run: a lock that
// deadlocks or starves a waiter fails within this window instead of
// wedging the suite until the go-test timeout panics. A variable so
// this package's self-tests can shrink the window when exercising
// deliberately wedged locks.
var harnessDeadline = 2 * time.Minute

// awaitWorkers waits for wg within harnessDeadline and fails the test
// with what on expiry.
func awaitWorkers(t TB, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(harnessDeadline):
		t.Fatal(what)
	}
}

// checkProcs fails the test when n workers do not fit the topology,
// then sets the spin discipline for n.
func checkProcs(t TB, topo *numa.Topology, n int) {
	t.Helper()
	if n > topo.MaxProcs() {
		t.Fatalf("locktest: %d workers exceeds topology max %d", n, topo.MaxProcs())
	}
	spin.AutoOversubscribe(n)
}

// Check stress-tests mutual exclusion through the one seam every lock
// reaches its users by. Deadline-guarded, it verifies:
//
//   - Shared coexistence: when x genuinely shares reads
//     (locks.SharesExecReads), one shared closure per cluster must be
//     able to run simultaneously — an executor or reader-writer lock
//     that serializes shared mode while claiming to share it wedges
//     here. Exclusive adapters skip this phase; serializing shared
//     closures is their documented behavior.
//   - Exclusion and snapshot consistency: exclusive closures hold the
//     domain alone, and shared closures always observe the counter pair
//     equal — an exclusive update is never visible half done. The
//     counters are non-atomic, so any overlap is also a data race under
//     -race.
//   - Exactly-once execution: Exec and ExecShared return only after
//     their closure ran exactly once, its effects happening-before the
//     return; the counters equal the number of exclusive closures.
//
// readers and writers are goroutine counts; procs are assigned
// readers-first so shared closures land on distinct clusters. A
// blocking lock is checked as locks.ExecFromMutex(m) with no readers.
func Check(t TB, topo *numa.Topology, x locks.RWExecutor, readers, writers, iters int) {
	t.Helper()
	checkProcs(t, topo, readers+writers)
	coexist(t, topo, x, readers)
	stress(t, topo, x, readers, writers, iters, 0,
		"workers never finished: deadlock, lost wakeup or starvation")
}

// CheckFairness verifies a lock's waits stay bounded under skewed
// load: the first proc of every cluster is an aggressor that
// re-arrives for 10x the quota, and every other worker must still
// complete its iters critical sections within the harness deadline. A
// lock that lets eager re-arrivals starve a waiter (a deferred queue
// node never spliced back, a parked thread never promoted) turns the
// victim's quota into a hang, which the deadline reports as a
// failure. Quotas rather than a wall-clock window keep the check
// independent of scheduler timing (GOMAXPROCS=1 under -race
// legitimately runs workers very unevenly over short windows).
func CheckFairness(t TB, topo *numa.Topology, m locks.Mutex, procs, iters int) {
	t.Helper()
	checkProcs(t, topo, procs)
	stress(t, topo, locks.ExecFromMutex(m), 0, procs, iters, topo.Clusters(),
		"fairness deadline exceeded: a worker's acquisitions are unbounded-delayed (starvation or lost wakeup)")
}

// coexist is Check's first phase: one shared closure per cluster
// rendezvouses inside shared mode.
func coexist(t TB, topo *numa.Topology, x locks.RWExecutor, readers int) {
	t.Helper()
	want := min(topo.Clusters(), readers)
	if !locks.SharesExecReads(x) || want < 2 {
		return
	}
	var inside, stuck atomic.Int32
	var wg sync.WaitGroup
	deadline := time.Now().Add(harnessDeadline)
	for c := 0; c < want; c++ {
		// Proc c is on cluster c under round-robin placement.
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			x.ExecShared(topo.Proc(id), func() {
				inside.Add(1)
				for i := 0; inside.Load() < int32(want); i++ {
					if time.Now().After(deadline) {
						stuck.Add(1)
						break
					}
					spin.Poll(i)
				}
			})
		}(c)
	}
	awaitWorkers(t, &wg, "shared closures never finished the coexistence rendezvous")
	if stuck.Load() != 0 {
		t.Fatalf("shared closures on %d clusters could not run together", want)
	}
}

// stress is the one churn loop behind Check and CheckFairness: writers
// run exclusive closures, the first aggressors of them 10x iters, the
// rest iters; readers run shared closures until every writer retires
// its quota. stalled is the report for a run that outlives the
// deadline.
func stress(t TB, topo *numa.Topology, x locks.RWExecutor, readers, writers, iters, aggressors int, stalled string) {
	t.Helper()
	var s shared
	var lost, doubled atomic.Int64
	// once runs fn through submit and records whether it ran exactly once.
	once := func(submit func(*numa.Proc, func()), p *numa.Proc, fn func()) {
		runs := 0
		submit(p, func() { runs++; fn() })
		switch {
		case runs == 0:
			lost.Add(1)
		case runs > 1:
			doubled.Add(1)
		}
	}
	var writersDone atomic.Int32
	var wg sync.WaitGroup
	total := int64(0)
	for i := 0; i < writers; i++ {
		quota := iters
		if i < aggressors {
			quota = 10 * iters
		}
		total += int64(quota)
		wg.Add(1)
		go func(p *numa.Proc, quota int) {
			defer wg.Done()
			defer writersDone.Add(1)
			for k := 0; k < quota; k++ {
				once(x.Exec, p, func() { s.enter(k) })
			}
		}(topo.Proc(readers+i), quota)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(p *numa.Proc) {
			defer wg.Done()
			// A floor of iters closures exercises shared mode even if the
			// writers finish first.
			for k := 0; k < iters || writersDone.Load() < int32(writers); k++ {
				once(x.ExecShared, p, s.observe)
			}
		}(topo.Proc(i))
	}
	awaitWorkers(t, &wg, stalled)
	if v := lost.Load(); v != 0 {
		t.Fatalf("%d closures were lost (Exec/ExecShared returned before running them)", v)
	}
	if v := doubled.Load(); v != 0 {
		t.Fatalf("%d closures ran more than once", v)
	}
	if v := s.violations.Load(); v != 0 {
		t.Fatalf("mutual exclusion violated %d times", v)
	}
	if v := s.torn.Load(); v != 0 {
		t.Fatalf("shared closures observed %d torn snapshots", v)
	}
	if s.a != total || s.b != total {
		t.Fatalf("lost updates: counters (%d,%d), want %d", s.a, s.b, total)
	}
}

// CheckTryMutex stress-tests an abortable lock: procs goroutines each
// attempt iters acquisitions with the given patience; acquired
// sections run the exclusion check, aborted attempts retry nothing. It
// verifies exclusion, that the shared counter equals the number of
// successful acquisitions, and that at least one attempt succeeded.
// It returns (successes, aborts) so callers can assert on abort rates.
func CheckTryMutex(t TB, topo *numa.Topology, m locks.TryMutex, procs, iters int, patience time.Duration) (successes, aborts int64) {
	t.Helper()
	checkProcs(t, topo, procs)
	var s shared
	var okCount, abortCount atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			for k := 0; k < iters; k++ {
				if m.TryLockFor(p, patience) {
					s.enter(k)
					m.Unlock(p)
					okCount.Add(1)
				} else {
					abortCount.Add(1)
				}
			}
		}(i)
	}
	awaitWorkers(t, &wg, "try-lock workers never finished: deadlock, lost wakeup or starvation")
	if v := s.violations.Load(); v != 0 {
		t.Fatalf("mutual exclusion violated %d times", v)
	}
	if got := okCount.Load(); s.a != got || s.b != got {
		t.Fatalf("counters (%d,%d) disagree with %d successful acquisitions", s.a, s.b, got)
	}
	if okCount.Load() == 0 {
		t.Fatal("no acquisition ever succeeded")
	}
	return okCount.Load(), abortCount.Load()
}
