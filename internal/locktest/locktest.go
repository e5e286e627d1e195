// Package locktest provides reusable correctness harnesses for the
// lock implementations: mutual-exclusion stress checks for blocking
// and abortable locks, driven through the same Proc handles the real
// harnesses use. Every lock package's tests build on these.
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

// CheckMutex stress-tests mutual exclusion: procs goroutines each
// acquire m iters times around a shared critical section. It fails the
// test on any exclusion violation or lost update, and on a run that
// outlives the harness deadline (deadlock, lost wakeup, starvation).
func CheckMutex(t TB, topo *numa.Topology, m locks.Mutex, procs, iters int) {
	t.Helper()
	if procs > topo.MaxProcs() {
		t.Fatalf("locktest: %d procs exceeds topology max %d", procs, topo.MaxProcs())
	}
	spin.AutoOversubscribe(procs)
	var s shared
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			for k := 0; k < iters; k++ {
				m.Lock(p)
				s.enter(k)
				m.Unlock(p)
			}
		}(i)
	}
	awaitWorkers(t, &wg, "workers never finished: deadlock, lost wakeup or starvation")
	if v := s.violations.Load(); v != 0 {
		t.Fatalf("mutual exclusion violated %d times", v)
	}
	want := int64(procs * iters)
	if s.a != want || s.b != want {
		t.Fatalf("lost updates: counters (%d,%d), want %d", s.a, s.b, want)
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
	if procs > topo.MaxProcs() {
		t.Fatalf("locktest: %d procs exceeds topology max %d", procs, topo.MaxProcs())
	}
	spin.AutoOversubscribe(procs)
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
	if procs > topo.MaxProcs() {
		t.Fatalf("locktest: %d procs exceeds topology max %d", procs, topo.MaxProcs())
	}
	spin.AutoOversubscribe(procs)
	var s shared
	var wg sync.WaitGroup
	total := int64(0)
	for i := 0; i < procs; i++ {
		quota := iters
		if i < topo.Clusters() {
			quota = 10 * iters // the cluster's aggressor
		}
		total += int64(quota)
		wg.Add(1)
		go func(id, quota int) {
			defer wg.Done()
			p := topo.Proc(id)
			for k := 0; k < quota; k++ {
				m.Lock(p)
				s.enter(k)
				m.Unlock(p)
			}
		}(i, quota)
	}
	awaitWorkers(t, &wg, "fairness deadline exceeded: a worker's acquisitions are unbounded-delayed (starvation or lost wakeup)")
	if v := s.violations.Load(); v != 0 {
		t.Fatalf("mutual exclusion violated %d times", v)
	}
	if s.a != total || s.b != total {
		t.Fatalf("lost updates: counters (%d,%d), want %d", s.a, s.b, total)
	}
}

// CheckRW stress-tests a reader-writer lock. Three properties, all
// deadline-guarded like the other harnesses:
//
//   - Writer exclusion: writers hold exclusive mode alone (checked via
//     the same torn-counter shared state as CheckMutex).
//   - Snapshot consistency: readers under shared mode always observe
//     the two counters equal — a writer's mutation is never visible
//     half-done. The counters are deliberately non-atomic, so any
//     reader/writer overlap is also a data race under -race.
//   - Reader concurrency: when the lock genuinely shares reads
//     (locks.SharesReads), one reader per cluster must be able to hold
//     shared mode simultaneously — concurrent readers on distinct
//     clusters make progress instead of serializing. Exclusive
//     adapters (RWFromMutex) skip this phase; serializing readers is
//     their documented behavior.
//
// readers and writers are goroutine counts; procs are assigned
// readers-first so readers land on distinct clusters.
func CheckRW(t TB, topo *numa.Topology, l locks.RWMutex, readers, writers, iters int) {
	t.Helper()
	if readers+writers > topo.MaxProcs() {
		t.Fatalf("locktest: %d workers exceeds topology max %d", readers+writers, topo.MaxProcs())
	}
	spin.AutoOversubscribe(readers + writers)

	// Phase 1: reader concurrency. One reader per cluster enters shared
	// mode and waits until every cluster's reader is inside; a lock
	// that serializes readers wedges here and fails on the deadline.
	if locks.SharesReads(l) {
		want := topo.Clusters()
		if want > readers {
			want = readers
		}
		if want > 1 {
			var inside atomic.Int32
			var stuck atomic.Int32
			var cwg sync.WaitGroup
			deadline := time.Now().Add(harnessDeadline)
			for c := 0; c < want; c++ {
				// Proc c is on cluster c under round-robin placement.
				cwg.Add(1)
				go func(id int) {
					defer cwg.Done()
					p := topo.Proc(id)
					l.RLock(p)
					inside.Add(1)
					for i := 0; inside.Load() < int32(want); i++ {
						if time.Now().After(deadline) {
							stuck.Add(1)
							break
						}
						spin.Poll(i)
					}
					l.RUnlock(p)
				}(c)
			}
			awaitWorkers(t, &cwg, "readers never finished the coexistence rendezvous")
			if stuck.Load() != 0 {
				t.Fatalf("readers on %d clusters could not hold shared mode together", want)
			}
		}
	}

	// Phase 2: writer exclusion and snapshot consistency under churn.
	// Writers mutate the counter pair under exclusive mode; readers
	// under shared mode must always see it consistent.
	var s shared
	var writersDone atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer writersDone.Add(1)
			p := topo.Proc(readers + id)
			for k := 0; k < iters; k++ {
				l.Lock(p)
				s.enter(k)
				l.Unlock(p)
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			// Read until every writer retires its quota, with a floor of
			// iters sections so readers exercise the lock even if the
			// writers finish first.
			for k := 0; k < iters || writersDone.Load() < int32(writers); k++ {
				l.RLock(p)
				s.observe()
				l.RUnlock(p)
			}
		}(i)
	}
	awaitWorkers(t, &wg, "rw workers never finished: deadlock, lost wakeup or reader starvation")
	if v := s.violations.Load(); v != 0 {
		t.Fatalf("writer exclusion violated %d times", v)
	}
	if v := s.torn.Load(); v != 0 {
		t.Fatalf("readers observed %d torn snapshots", v)
	}
	want := int64(writers * iters)
	if s.a != want || s.b != want {
		t.Fatalf("lost updates: counters (%d,%d), want %d", s.a, s.b, want)
	}
}

// CheckExec stress-tests a delegated-execution combiner
// (locks.Executor): procs goroutines each submit iters closures
// through Exec. Deadline-guarded like the other harnesses, it
// verifies:
//
//   - Mutual exclusion of closures: no two posted closures run
//     concurrently, even when a combiner executes other procs'
//     closures on its own thread (the same torn-counter shared state
//     as CheckMutex, so an overlap is also a data race under -race).
//   - No lost or double-run ops: Exec must return only after its own
//     closure ran exactly once. The per-call run counter is written
//     inside the closure and read after Exec returns, so an executor
//     whose completion signal does not happen-after the closure is
//     also a data race.
//   - No lost updates overall: the shared counters equal the total
//     number of submitted closures.
func CheckExec(t TB, topo *numa.Topology, x locks.Executor, procs, iters int) {
	t.Helper()
	if procs > topo.MaxProcs() {
		t.Fatalf("locktest: %d procs exceeds topology max %d", procs, topo.MaxProcs())
	}
	spin.AutoOversubscribe(procs)
	var s shared
	var lost, doubled atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			for k := 0; k < iters; k++ {
				runs := 0
				x.Exec(p, func() {
					runs++
					s.enter(k)
				})
				switch {
				case runs == 0:
					lost.Add(1)
				case runs > 1:
					doubled.Add(1)
				}
			}
		}(i)
	}
	awaitWorkers(t, &wg, "exec workers never finished: combiner deadlock, lost wakeup or starvation")
	if v := lost.Load(); v != 0 {
		t.Fatalf("%d closures were lost (Exec returned before running them)", v)
	}
	if v := doubled.Load(); v != 0 {
		t.Fatalf("%d closures ran more than once", v)
	}
	if v := s.violations.Load(); v != 0 {
		t.Fatalf("closure mutual exclusion violated %d times", v)
	}
	want := int64(procs * iters)
	if s.a != want || s.b != want {
		t.Fatalf("lost updates: counters (%d,%d), want %d", s.a, s.b, want)
	}
}

// CheckRWExec stress-tests a shared-mode executor (locks.RWExecutor):
// delegated execution whose closures come in exclusive and shared
// flavors. Deadline-guarded like the other harnesses, it verifies:
//
//   - Shared coexistence: when the executor genuinely shares reads
//     (locks.SharesExecReads), one shared closure per cluster must be
//     able to run simultaneously — concurrent shared batches make
//     progress instead of serializing. Adapters over exclusive locks
//     skip this phase; serializing shared closures is their documented
//     behavior.
//   - Writer exclusion and snapshot consistency: exclusive closures
//     hold the domain alone (torn-counter state as in CheckMutex), and
//     shared closures always observe the counters equal — an exclusive
//     mutation is never visible half-done. The counters are non-atomic,
//     so any shared/exclusive overlap is also a data race under -race.
//   - No lost or double-run ops in either mode: Exec and ExecShared
//     must return only after their closure ran exactly once, with the
//     closure's effects happening-before the return.
//
// readers and writers are goroutine counts; procs are assigned
// readers-first so shared closures land on distinct clusters.
func CheckRWExec(t TB, topo *numa.Topology, x locks.RWExecutor, readers, writers, iters int) {
	t.Helper()
	if readers+writers > topo.MaxProcs() {
		t.Fatalf("locktest: %d workers exceeds topology max %d", readers+writers, topo.MaxProcs())
	}
	spin.AutoOversubscribe(readers + writers)

	// Phase 1: shared coexistence. One shared closure per cluster
	// rendezvouses inside shared mode; an executor that serializes
	// shared closures wedges here and fails on the deadline.
	if locks.SharesExecReads(x) {
		want := topo.Clusters()
		if want > readers {
			want = readers
		}
		if want > 1 {
			var inside atomic.Int32
			var stuck atomic.Int32
			var cwg sync.WaitGroup
			deadline := time.Now().Add(harnessDeadline)
			for c := 0; c < want; c++ {
				// Proc c is on cluster c under round-robin placement.
				cwg.Add(1)
				go func(id int) {
					defer cwg.Done()
					p := topo.Proc(id)
					x.ExecShared(p, func() {
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
			awaitWorkers(t, &cwg, "shared closures never finished the coexistence rendezvous")
			if stuck.Load() != 0 {
				t.Fatalf("shared closures on %d clusters could not run together", want)
			}
		}
	}

	// Phase 2: exclusive exclusion, snapshot consistency and
	// exactly-once execution under churn.
	var s shared
	var lost, doubled atomic.Int64
	var writersDone atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer writersDone.Add(1)
			p := topo.Proc(readers + id)
			for k := 0; k < iters; k++ {
				runs := 0
				x.Exec(p, func() {
					runs++
					s.enter(k)
				})
				switch {
				case runs == 0:
					lost.Add(1)
				case runs > 1:
					doubled.Add(1)
				}
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := topo.Proc(id)
			// Read until every writer retires its quota, with a floor of
			// iters closures so shared mode is exercised even if the
			// writers finish first.
			for k := 0; k < iters || writersDone.Load() < int32(writers); k++ {
				runs := 0
				x.ExecShared(p, func() {
					runs++
					s.observe()
				})
				switch {
				case runs == 0:
					lost.Add(1)
				case runs > 1:
					doubled.Add(1)
				}
			}
		}(i)
	}
	awaitWorkers(t, &wg, "rw-exec workers never finished: deadlock, lost wakeup or starvation")
	if v := lost.Load(); v != 0 {
		t.Fatalf("%d closures were lost (Exec/ExecShared returned before running them)", v)
	}
	if v := doubled.Load(); v != 0 {
		t.Fatalf("%d closures ran more than once", v)
	}
	if v := s.violations.Load(); v != 0 {
		t.Fatalf("exclusive-closure exclusion violated %d times", v)
	}
	if v := s.torn.Load(); v != 0 {
		t.Fatalf("shared closures observed %d torn snapshots", v)
	}
	want := int64(writers * iters)
	if s.a != want || s.b != want {
		t.Fatalf("lost updates: counters (%d,%d), want %d", s.a, s.b, want)
	}
}

// CheckHandoff verifies a lock hands over between two specific procs
// repeatedly without losing progress: proc 0 and proc 1 alternate via
// the lock, each completing iters sections within the deadline.
func CheckHandoff(t TB, topo *numa.Topology, m locks.Mutex, iters int) {
	t.Helper()
	spin.AutoOversubscribe(2)
	done := make(chan struct{}, 2)
	var s shared
	for i := 0; i < 2; i++ {
		go func(id int) {
			p := topo.Proc(id)
			for k := 0; k < iters; k++ {
				m.Lock(p)
				s.enter(k)
				m.Unlock(p)
			}
			done <- struct{}{}
		}(i)
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatal("handoff stalled: possible lost wakeup or deadlock")
		}
	}
	if v := s.violations.Load(); v != 0 {
		t.Fatalf("mutual exclusion violated %d times", v)
	}
}
