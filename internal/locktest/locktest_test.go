package locktest

// The harnesses are load-bearing CI gates: the registry round-trip
// test pushes every registered lock through them, so a harness that
// silently passes broken locks voids the whole suite. These tests
// feed each harness a deliberately broken implementation and assert
// it fails for exactly the advertised reason — and still passes a
// known-good lock afterwards.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/numa"
)

// recorder is the TB the self-tests hand to a harness: it records the
// first fatal report and stops the harness goroutine exactly as
// testing.T.Fatalf does.
type recorder struct {
	failed bool
	msg    string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatal(args ...any) { r.fail(fmt.Sprint(args...)) }

func (r *recorder) Fatalf(format string, args ...any) { r.fail(fmt.Sprintf(format, args...)) }

func (r *recorder) fail(msg string) {
	r.failed = true
	r.msg = msg
	runtime.Goexit()
}

// expectFailure runs check against a recorder in its own goroutine
// (so the recorder's Goexit lands somewhere safe) and returns the
// recorded fatal message, failing t if the harness passed.
func expectFailure(t *testing.T, what string, check func(tb TB)) string {
	t.Helper()
	r := &recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		check(r)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("%s: harness wedged beyond its own deadline", what)
	}
	if !r.failed {
		t.Fatalf("%s: harness passed a deliberately broken lock", what)
	}
	return r.msg
}

// withDeadline shrinks the harness deadline for tests whose broken
// lock wedges on purpose. Tests in this package run sequentially, so
// swapping the package variable is safe.
func withDeadline(d time.Duration, f func()) {
	old := harnessDeadline
	harnessDeadline = d
	defer func() { harnessDeadline = old }()
	f()
}

// noopLock admits everyone: the canonical exclusion violation.
type noopLock struct{}

func (noopLock) Lock(p *numa.Proc)   {}
func (noopLock) Unlock(p *numa.Proc) {}

// blockLock never grants: the canonical deadlock. Waiters park on a
// channel (rather than spin) so the leaked goroutines cost nothing.
type blockLock struct {
	ch chan struct{}
}

func newBlockLock() blockLock { return blockLock{ch: make(chan struct{})} }

func (l blockLock) Lock(p *numa.Proc)   { <-l.ch }
func (l blockLock) Unlock(p *numa.Proc) {}

// starveLock serves only the aggressor procs (id < 2 on the 2-cluster
// test topology) and wedges everyone else: starvation without an
// exclusion violation.
type starveLock struct {
	mu    sync.Mutex
	never chan struct{}
}

func newStarveLock() *starveLock { return &starveLock{never: make(chan struct{})} }

func (l *starveLock) Lock(p *numa.Proc) {
	if p.ID() >= 2 {
		<-l.never
	}
	l.mu.Lock()
}

func (l *starveLock) Unlock(p *numa.Proc) { l.mu.Unlock() }

// sloppyTry grants every TryLockFor without any exclusion.
type sloppyTry struct{}

func (sloppyTry) TryLockFor(p *numa.Proc, patience time.Duration) bool { return true }
func (sloppyTry) Unlock(p *numa.Proc)                                  {}

// dropExec returns without running the closure: a lost op.
type dropExec struct{}

func (dropExec) Exec(p *numa.Proc, fn func())       {}
func (dropExec) ExecShared(p *numa.Proc, fn func()) {}

// doubleExec runs every closure twice (under a real lock, so the
// failure is double-execution alone, race-detector clean).
type doubleExec struct {
	mu sync.Mutex
}

func (x *doubleExec) Exec(p *numa.Proc, fn func()) {
	x.mu.Lock()
	fn()
	fn()
	x.mu.Unlock()
}

func (x *doubleExec) ExecShared(p *numa.Proc, fn func()) { x.Exec(p, fn) }

// bareExec runs closures with no exclusion at all.
type bareExec struct{}

func (bareExec) Exec(p *numa.Proc, fn func())       { fn() }
func (bareExec) ExecShared(p *numa.Proc, fn func()) { fn() }

// tornRWExec takes exclusive closures through a real mutex but runs
// shared closures bare: writer exclusion holds, snapshots tear.
type tornRWExec struct {
	mu sync.Mutex
}

func (x *tornRWExec) Exec(p *numa.Proc, fn func()) {
	x.mu.Lock()
	fn()
	x.mu.Unlock()
}

func (x *tornRWExec) ExecShared(p *numa.Proc, fn func()) { fn() }

// serialRWExec serializes shared closures through the same mutex as
// exclusive ones: correct exclusion, broken coexistence.
type serialRWExec struct {
	mu sync.Mutex
}

func (x *serialRWExec) Exec(p *numa.Proc, fn func()) {
	x.mu.Lock()
	fn()
	x.mu.Unlock()
}

func (x *serialRWExec) ExecShared(p *numa.Proc, fn func()) {
	x.mu.Lock()
	fn()
	x.mu.Unlock()
}

// dropSharedExec runs exclusive closures correctly but returns from
// ExecShared without running the closure: lost shared ops.
type dropSharedExec struct {
	mu sync.Mutex
}

func (x *dropSharedExec) Exec(p *numa.Proc, fn func()) {
	x.mu.Lock()
	fn()
	x.mu.Unlock()
}

func (x *dropSharedExec) ExecShared(p *numa.Proc, fn func()) {}

// brokenRWCombiner is a miniature read-side combiner with a seeded
// defect: readers post closures to a queue, one poster elects itself
// combiner through a gate and drains the whole batch, and posters spin
// until their closure is acknowledged. The defect comes in two
// flavors:
//
//   - drop=false: the combiner runs every batched read under the
//     EXCLUSIVE mutex — shared closures serialize, so the coexistence
//     rendezvous must wedge.
//   - drop=true: the combiner acknowledges every second batched
//     closure without running it — lost shared ops.
type brokenRWCombiner struct {
	drop   bool
	mu     sync.Mutex // exclusive domain
	gate   sync.Mutex // combiner election
	qmu    sync.Mutex
	q      []postedRead
	parity int
}

type postedRead struct {
	fn   func()
	done chan struct{}
}

func (x *brokenRWCombiner) Exec(p *numa.Proc, fn func()) {
	x.mu.Lock()
	fn()
	x.mu.Unlock()
}

func (x *brokenRWCombiner) ExecShared(p *numa.Proc, fn func()) {
	done := make(chan struct{})
	x.qmu.Lock()
	x.q = append(x.q, postedRead{fn, done})
	x.qmu.Unlock()
	for {
		select {
		case <-done:
			return
		default:
		}
		if x.gate.TryLock() {
			x.combine()
			x.gate.Unlock()
		} else {
			runtime.Gosched()
		}
	}
}

func (x *brokenRWCombiner) combine() {
	x.qmu.Lock()
	batch := x.q
	x.q = nil
	x.qmu.Unlock()
	x.mu.Lock() // the defect: reads run under exclusive mode
	for _, pr := range batch {
		if x.drop {
			x.parity++
			if x.parity%2 == 0 {
				close(pr.done) // acknowledged, never run: a lost op
				continue
			}
		}
		pr.fn()
		close(pr.done)
	}
	x.mu.Unlock()
}

// tornRW takes writers through a real mutex but lets readers straight
// through: writer exclusion holds, snapshots tear.
type tornRW struct {
	mu sync.Mutex
}

func (l *tornRW) Lock(p *numa.Proc)    { l.mu.Lock() }
func (l *tornRW) Unlock(p *numa.Proc)  { l.mu.Unlock() }
func (l *tornRW) RLock(p *numa.Proc)   {}
func (l *tornRW) RUnlock(p *numa.Proc) {}

// serialRW takes readers through the writers' mutex: correct
// exclusion, broken coexistence.
type serialRW struct {
	mu sync.Mutex
}

func (l *serialRW) Lock(p *numa.Proc)    { l.mu.Lock() }
func (l *serialRW) Unlock(p *numa.Proc)  { l.mu.Unlock() }
func (l *serialRW) RLock(p *numa.Proc)   { l.mu.Lock() }
func (l *serialRW) RUnlock(p *numa.Proc) { l.mu.Unlock() }

func testTopo() *numa.Topology { return numa.New(2, 8) }

// needsViolationObservation skips tests whose broken lock can only be
// caught in the act: under -race the violation is (by design) a data
// race the detector reports first, and without at least two truly
// concurrent processors the tight harness loops never interleave
// mid-critical-section, so even a no-op lock runs cleanly.
func needsViolationObservation(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("a non-excluding lock is a data race by design; the detector fires before the harness")
	}
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("observing an exclusion violation needs two truly concurrent processors")
	}
}

func TestCheckMutexCatchesExclusionViolation(t *testing.T) {
	needsViolationObservation(t)
	msg := expectFailure(t, "Check/noop", func(tb TB) {
		Check(tb, testTopo(), locks.ExecFromMutex(noopLock{}), 0, 8, 20_000)
	})
	if !strings.Contains(msg, "violated") && !strings.Contains(msg, "lost updates") {
		t.Errorf("unexpected failure message: %q", msg)
	}
}

func TestCheckMutexCatchesDeadlock(t *testing.T) {
	withDeadline(300*time.Millisecond, func() {
		msg := expectFailure(t, "Check/deadlock", func(tb TB) {
			Check(tb, testTopo(), locks.ExecFromMutex(newBlockLock()), 0, 4, 10)
		})
		if !strings.Contains(msg, "never finished") {
			t.Errorf("unexpected failure message: %q", msg)
		}
	})
}

func TestCheckTryMutexCatchesViolation(t *testing.T) {
	needsViolationObservation(t)
	expectFailure(t, "CheckTryMutex/sloppy", func(tb TB) {
		CheckTryMutex(tb, testTopo(), sloppyTry{}, 8, 20_000, time.Millisecond)
	})
}

func TestCheckFairnessCatchesStarvation(t *testing.T) {
	withDeadline(300*time.Millisecond, func() {
		msg := expectFailure(t, "CheckFairness/starve", func(tb TB) {
			CheckFairness(tb, testTopo(), newStarveLock(), 6, 10)
		})
		if !strings.Contains(msg, "fairness deadline") {
			t.Errorf("unexpected failure message: %q", msg)
		}
	})
}

func TestCheckRWCatchesTornSnapshots(t *testing.T) {
	needsViolationObservation(t)
	msg := expectFailure(t, "Check/torn-rw", func(tb TB) {
		x := locks.ExecFromRWMutex(&tornRW{})
		Coexist(tb, testTopo(), x, 4)
		Check(tb, testTopo(), x, 4, 3, 20_000)
	})
	if !strings.Contains(msg, "torn") && !strings.Contains(msg, "could not run together") {
		t.Errorf("unexpected failure message: %q", msg)
	}
}

func TestCheckCatchesSerializedSharedLock(t *testing.T) {
	// A reader-writer lock whose readers serialize, adapted through
	// ExecFromRWMutex, must wedge the coexistence rendezvous and fail on
	// the deadline.
	withDeadline(300*time.Millisecond, func() {
		msg := expectFailure(t, "Coexist/serialized-rw", func(tb TB) {
			Coexist(tb, testTopo(), locks.ExecFromRWMutex(&serialRW{}), 4)
		})
		if !strings.Contains(msg, "could not run together") && !strings.Contains(msg, "rendezvous") {
			t.Errorf("unexpected failure message: %q", msg)
		}
	})
}

func TestCheckExecCatchesLostOps(t *testing.T) {
	msg := expectFailure(t, "Check/drop", func(tb TB) {
		Check(tb, testTopo(), dropExec{}, 0, 4, 50)
	})
	if !strings.Contains(msg, "lost") {
		t.Errorf("unexpected failure message: %q", msg)
	}
}

func TestCheckExecCatchesDoubleRuns(t *testing.T) {
	msg := expectFailure(t, "Check/double", func(tb TB) {
		Check(tb, testTopo(), &doubleExec{}, 0, 4, 50)
	})
	if !strings.Contains(msg, "more than once") {
		t.Errorf("unexpected failure message: %q", msg)
	}
}

func TestCheckExecCatchesExclusionViolation(t *testing.T) {
	needsViolationObservation(t)
	expectFailure(t, "Check/bare", func(tb TB) {
		Check(tb, testTopo(), bareExec{}, 0, 8, 20_000)
	})
}

func TestCheckRWExecCatchesTornSnapshots(t *testing.T) {
	needsViolationObservation(t)
	msg := expectFailure(t, "Check/torn", func(tb TB) {
		Coexist(tb, testTopo(), &tornRWExec{}, 4)
		Check(tb, testTopo(), &tornRWExec{}, 4, 3, 20_000)
	})
	if !strings.Contains(msg, "torn") && !strings.Contains(msg, "could not run together") {
		t.Errorf("unexpected failure message: %q", msg)
	}
}

func TestCheckRWExecCatchesSerializedSharedClosures(t *testing.T) {
	// An executor whose shared closures serialize must wedge the
	// coexistence rendezvous and fail on the deadline. Needs two
	// clusters' closures genuinely in flight at once, which a
	// single-processor scheduler can still provide: the inside closure
	// spins through spin.Poll, which yields.
	withDeadline(300*time.Millisecond, func() {
		msg := expectFailure(t, "Coexist/serialized", func(tb TB) {
			Coexist(tb, testTopo(), &serialRWExec{}, 4)
		})
		if !strings.Contains(msg, "could not run together") && !strings.Contains(msg, "rendezvous") {
			t.Errorf("unexpected failure message: %q", msg)
		}
	})
}

func TestCheckRWExecCatchesLostSharedClosures(t *testing.T) {
	msg := expectFailure(t, "Check/drop-shared", func(tb TB) {
		Check(tb, testTopo(), &dropSharedExec{}, 4, 2, 50)
	})
	if !strings.Contains(msg, "lost") {
		t.Errorf("unexpected failure message: %q", msg)
	}
}

func TestCheckRWExecCatchesExclusiveHarvest(t *testing.T) {
	// A combiner that runs its batch of read closures under the
	// exclusive lock serializes shared mode: the coexistence rendezvous
	// must wedge on the deadline.
	withDeadline(300*time.Millisecond, func() {
		msg := expectFailure(t, "Coexist/exclusive-harvest", func(tb TB) {
			Coexist(tb, testTopo(), &brokenRWCombiner{}, 4)
		})
		if !strings.Contains(msg, "could not run together") && !strings.Contains(msg, "rendezvous") {
			t.Errorf("unexpected failure message: %q", msg)
		}
	})
}

func TestCheckRWExecCatchesDroppedHarvestedClosure(t *testing.T) {
	// A combiner that acknowledges a posted read closure without
	// running it must show up as lost ops.
	msg := expectFailure(t, "Check/drop-harvested", func(tb TB) {
		Check(tb, testTopo(), &brokenRWCombiner{drop: true}, 4, 2, 50)
	})
	if !strings.Contains(msg, "lost") {
		t.Errorf("unexpected failure message: %q", msg)
	}
}

func TestHarnessesPassCorrectImplementations(t *testing.T) {
	// Positive control: the same harnesses must accept known-good
	// implementations, reached through every adapter, or the failure
	// tests above prove nothing.
	topo := testTopo()
	rw := func() locks.RWMutex { return locks.NewRWPerCluster(topo, locks.NewMCS(topo)) }
	Check(t, topo, locks.ExecFromMutex(locks.NewMCS(topo)), 0, 8, 100)
	CheckFairness(t, topo, locks.NewMCS(topo), 6, 50)
	for _, x := range []locks.RWExecutor{locks.ExecFromRWMutex(rw()), locks.NewRWCombiningAdaptive(topo, rw())} {
		Coexist(t, topo, x, 4)
		Check(t, topo, x, 4, 2, 100)
	}
	Check(t, topo, locks.ExecFromRWMutex(locks.RWFromMutex(locks.NewMCS(topo))), 4, 2, 100)
	Check(t, topo, locks.NewCombiningAdaptive(topo, locks.NewMCS(topo)), 0, 8, 100)
}
