// Package spin provides the low-level busy-waiting primitives shared by
// every spin lock in this repository: processor-friendly pause loops,
// oversubscription-safe polling, bounded exponential and Fibonacci
// backoff, a calibrated nanosecond busy-wait, and a cheap monotonic
// clock for abort deadlines.
//
// The Go runtime multiplexes goroutines onto a bounded set of OS
// threads, so a naive spin loop can starve the very goroutine it is
// waiting for when workers outnumber GOMAXPROCS. Poll therefore
// escalates from cheap pauses to yielding so that spinning remains
// safe even for the paper's 255-thread configurations.
//
// The package is the lock and store stack's one door to the scheduler:
// the stack blocks, yields, counts processors and reads the clock only
// through yield, Parker, Mutex, CPUs and Now (seam_test.go checks it).
package spin

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// sink defeats dead-code elimination of pause loops. It is written at
// most once per program run, behind a condition that is never true in
// practice, through an atomic to stay race-detector clean.
var sink atomic.Uint64

// Pause busy-spins for approximately n trivial loop iterations. It
// never yields the processor; use Poll inside unbounded spin loops.
func Pause(n int) {
	var x uint64
	for i := 0; i < n; i++ {
		x += uint64(i) | 1
	}
	if x == 0 { // never true: every term is odd-or-greater, n>=1 sums >0; n<=0 skips
		sink.Store(x)
	}
}

// oversubscribed selects between two spin disciplines. The paper's
// machine gives every thread a hardware context, so waiters spin
// freely; under the Go runtime that discipline is only safe (and only
// fast) while workers do not exceed GOMAXPROCS — a descheduled waiter
// takes tens of microseconds to run again, which would tax every
// hand-off. Harnesses therefore declare oversubscription explicitly:
// when set, spin loops go hot briefly and then yield on every
// iteration so waiting goroutines cannot monopolize the processors.
// The conservative default is on.
var oversubscribed atomic.Bool

func init() { oversubscribed.Store(true) }

// AutoOversubscribe sets the discipline from a worker count and
// reports the previous value. Harnesses call it before a run; it may
// be changed between runs but not during one. A single worker never
// contends with anyone for a processor, so it never oversubscribes —
// even when CPUs is 1.
func AutoOversubscribe(workers int) bool {
	prev := oversubscribed.Load()
	oversubscribed.Store(workers > 1 && workers >= CPUs())
	return prev
}

// Yield deschedules the caller when workers may outnumber GOMAXPROCS,
// and is free otherwise. Its caller is a combiner that has just served
// someone else: a goroutine that serves others' requests and
// immediately starts its next cycle never blocks, so on an
// oversubscribed machine it would monopolize its processor and the
// posters it just served (and those still waiting to post) could
// starve behind it. One yield per such batch hands the processor
// around at batch frequency instead of the runtime's coarse preemption
// interval. A caller that served only itself has nobody to hand the
// processor to and should not call it: oversubscription is the
// default discipline, so the call is a trip through the scheduler.
func Yield() {
	if oversubscribed.Load() {
		yield()
	}
}

// hotSpinIters is the spin-then-yield threshold of Poll when
// oversubscribed: roughly 5 µs of pure spinning before every iteration
// yields.
const hotSpinIters = 1024

// Poll performs the i-th iteration of an unbounded spin-wait. With
// dedicated processors (not oversubscribed) it pauses briefly and
// never deschedules, like the paper's hardware threads; when
// oversubscribed it spins hot briefly, then yields every iteration so
// the lock holder always gets processor time.
func Poll(i int) {
	if i < hotSpinIters {
		Pause(16)
		return
	}
	if oversubscribed.Load() {
		yield()
		return
	}
	Pause(64)
}

const waitChunk = 1 << 15 // pause units WaitNs spins between yields

// calibration state for WaitNs: pauseUnitsPerMicro is the number of
// Pause(1) iterations that consume roughly one microsecond.
var (
	calOnce            sync.Once
	pauseUnitsPerMicro atomic.Int64
)

// Calibrate measures the cost of Pause iterations and stores the
// iterations-per-microsecond rate used by WaitNs. It is invoked
// automatically on first use; tests may call it eagerly.
//
// It times several short windows and keeps the fastest: a deschedule
// inside a window only ever lowers that window's rate, so under CPU
// load one long window would understate the rate (and WaitNs would
// return early), while the best of eight still reads an undisturbed
// spin.
func Calibrate() {
	calOnce.Do(func() {
		const (
			batch   = 4096
			windows = 8
			window  = 250 * time.Microsecond
		)
		// Warm up once so the loop is resident.
		Pause(batch)
		rate := int64(1)
		for range windows {
			var iters int64
			start := time.Now()
			for time.Since(start) < window {
				Pause(batch)
				iters += batch
			}
			rate = max(rate, iters*1000/time.Since(start).Nanoseconds())
		}
		pauseUnitsPerMicro.Store(rate)
	})
}

// UnitsPerMicro reports the calibrated number of Pause(1) iterations
// per microsecond.
func UnitsPerMicro() int64 {
	Calibrate()
	return pauseUnitsPerMicro.Load()
}

// WaitNs busy-waits for approximately ns nanoseconds without sleeping.
// Long waits (> 4 µs) periodically yield so oversubscribed workloads
// make progress. Non-positive durations return immediately.
func WaitNs(ns int64) {
	if ns <= 0 {
		return
	}
	units := ns * UnitsPerMicro() / 1000
	if units <= 0 {
		units = 1
	}
	// Yield only on long waits (waitChunk ≈ 9 µs) and only when
	// oversubscribed: short waits — like LBench's 4 µs non-critical
	// idle — must not pay descheduling latency, or the emulated delay
	// balloons.
	for units > waitChunk {
		Pause(waitChunk)
		units -= waitChunk
		if oversubscribed.Load() {
			yield()
		}
	}
	Pause(int(units))
}

// programStart anchors the cheap monotonic clock exposed by Now.
var programStart = time.Now()

// Now returns nanoseconds elapsed since program start using the
// monotonic clock. It is the time base for abort deadlines: a deadline
// is spin.Now()+patience, checked with Expired.
func Now() int64 {
	return int64(time.Since(programStart))
}

// Deadline converts a patience duration into an absolute deadline for
// TryLock-style operations. A non-positive patience yields a deadline
// that is already expired; a math.MaxInt64 one never expires.
func Deadline(patience time.Duration) int64 {
	now := Now()
	return now + min(int64(patience), math.MaxInt64-now)
}

// Expired reports whether the deadline produced by Deadline has passed.
// A math.MaxInt64 deadline never passes, and asks no clock to say so.
func Expired(deadline int64) bool {
	return deadline != math.MaxInt64 && Now() >= deadline
}
