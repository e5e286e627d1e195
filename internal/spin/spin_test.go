package spin

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPauseNonNegative(t *testing.T) {
	// Must not hang or panic for edge inputs.
	Pause(0)
	Pause(-5)
	Pause(1)
	Pause(1 << 12)
}

func TestCalibrateProducesRate(t *testing.T) {
	Calibrate()
	if got := UnitsPerMicro(); got < 1 {
		t.Fatalf("UnitsPerMicro() = %d, want >= 1", got)
	}
}

func TestWaitNsApproximatesDuration(t *testing.T) {
	Calibrate()
	const target = 200 * time.Microsecond
	start := time.Now()
	WaitNs(int64(target))
	elapsed := time.Since(start)
	// Calibration is coarse; accept a generous band but catch order-of-
	// magnitude errors (e.g. units-vs-nanos confusion).
	if elapsed < target/8 {
		t.Errorf("WaitNs(%v) returned after %v, far too fast", target, elapsed)
	}
	if elapsed > target*64 {
		t.Errorf("WaitNs(%v) took %v, far too slow", target, elapsed)
	}
}

func TestWaitNsNonPositive(t *testing.T) {
	start := time.Now()
	WaitNs(0)
	WaitNs(-100)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("WaitNs with non-positive input should return immediately")
	}
}

func TestNowMonotonic(t *testing.T) {
	a := Now()
	time.Sleep(time.Millisecond)
	b := Now()
	if b <= a {
		t.Fatalf("Now not monotonic: %d then %d", a, b)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	d := Deadline(50 * time.Millisecond)
	if Expired(d) {
		t.Fatal("fresh deadline already expired")
	}
	if !Expired(Deadline(-time.Millisecond)) {
		t.Fatal("negative patience should be pre-expired")
	}
	time.Sleep(60 * time.Millisecond)
	if !Expired(d) {
		t.Fatal("deadline did not expire after its patience elapsed")
	}
	// A patience past the clock's range saturates instead of wrapping
	// into the past.
	if forever := Deadline(math.MaxInt64); forever != math.MaxInt64 || Expired(forever) {
		t.Fatalf("Deadline(math.MaxInt64) = %d (expired %v), want math.MaxInt64, never expired", forever, Expired(forever))
	}
}

func TestXorShiftNonZeroAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for id := uint64(0); id < 64; id++ {
		g := NewXorShift(id)
		v := g.Next()
		if v == 0 {
			t.Fatalf("generator %d produced 0", id)
		}
		if seen[v] {
			t.Fatalf("generator %d repeated first output %d", id, v)
		}
		seen[v] = true
	}
}

func TestXorShiftIntNRange(t *testing.T) {
	f := func(seed uint64, n int64) bool {
		if n <= 0 {
			n = 1
		}
		g := NewXorShift(seed)
		for i := 0; i < 50; i++ {
			v := g.IntN(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffExponentialGrowsAndCaps(t *testing.T) {
	b := NewBackoff(PolicyExponential, 4, 64, 1)
	var prev int64
	for i := 0; i < 10; i++ {
		cur := b.cur
		if cur < prev {
			t.Fatalf("exponential backoff shrank: %d -> %d", prev, cur)
		}
		if cur > 64 {
			t.Fatalf("exponential backoff exceeded cap: %d", cur)
		}
		prev = cur
		b.Wait()
	}
	if b.cur != 64 {
		t.Fatalf("after 10 waits, bound = %d, want capped at 64", b.cur)
	}
}

func TestBackoffFibonacciSequence(t *testing.T) {
	b := NewBackoff(PolicyFibonacci, 1, 1000, 1)
	want := []int64{1, 1, 2, 3, 5, 8, 13, 21}
	for i, w := range want {
		if b.cur != w {
			t.Fatalf("fib step %d: bound = %d, want %d", i, b.cur, w)
		}
		b.Wait()
	}
}

func TestBackoffClampsInvalidBounds(t *testing.T) {
	b := NewBackoff(PolicyExponential, -10, -20, 1)
	if b.cur < 1 {
		t.Fatalf("bound = %d, want >= 1 after clamping", b.cur)
	}
	b.Wait() // must not panic
}

// countYields makes every yield for the rest of the test a count
// under the given discipline, and returns the counter.
func countYields(t *testing.T, over bool) *int {
	prevYield, prevOver := yield, oversubscribed.Load()
	t.Cleanup(func() {
		yield = prevYield
		oversubscribed.Store(prevOver)
	})
	n := 0
	yield = func() { n++ }
	oversubscribed.Store(over)
	return &n
}

func TestPollDisciplines(t *testing.T) {
	// Each wait yields never with dedicated processors and, when
	// oversubscribed, exactly as often as its discipline says.
	const polls = 4096
	ns := int64(7*waitChunk/2) * 1000 / UnitsPerMicro() // 3.5 chunks of WaitNs
	for _, tc := range []struct {
		name string
		wait func()
		want int // yields when oversubscribed
	}{
		{"Poll", func() {
			for i := range polls {
				Poll(i)
			}
		}, polls - hotSpinIters}, // one per poll past the hot window
		{"Yield", func() {
			for range 100 {
				Yield()
			}
		}, 100},
		{"WaitNs", func() { WaitNs(ns) }, 3}, // one per full chunk
	} {
		t.Run(tc.name, func(t *testing.T) {
			yields := countYields(t, false)
			tc.wait()
			if *yields != 0 {
				t.Fatalf("yielded %d times with dedicated processors", *yields)
			}
			oversubscribed.Store(true)
			tc.wait()
			if *yields != tc.want {
				t.Fatalf("yielded %d times oversubscribed, want %d", *yields, tc.want)
			}
		})
	}
}

func TestOversubscriptionFlag(t *testing.T) {
	prev := oversubscribed.Load()
	defer oversubscribed.Store(prev)
	oversubscribed.Store(false)
	if oversubscribed.Load() {
		t.Fatal("flag did not clear")
	}
	got := AutoOversubscribe(1 << 20) // absurdly many workers
	if got {
		t.Fatal("AutoOversubscribe returned wrong previous value")
	}
	if !oversubscribed.Load() {
		t.Fatal("huge worker count did not set oversubscription")
	}
	AutoOversubscribe(1) // one worker never oversubscribes
	if oversubscribed.Load() {
		t.Fatal("single worker marked oversubscribed")
	}
}

func TestBackoffWaitYieldsOnlyWhenOversubscribed(t *testing.T) {
	yields := countYields(t, true)
	b := NewBackoff(PolicyExponential, 1, 2, 1)
	for i := 0; i < 64; i++ {
		b.Wait()
	}
	if want := 64 - hotAttempts; *yields != want {
		t.Fatalf("Backoff.Wait yielded %d times over 64 oversubscribed attempts, want %d", *yields, want)
	}

	*yields = 0
	oversubscribed.Store(false)
	b = NewBackoff(PolicyExponential, 1, 2, 1)
	for i := 0; i < 64; i++ {
		b.Wait()
	}
	if *yields != 0 {
		t.Fatalf("Backoff.Wait yielded %d times with dedicated processors", *yields)
	}
}
