package spin

import (
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
		cur := b.Cur()
		if cur < prev {
			t.Fatalf("exponential backoff shrank: %d -> %d", prev, cur)
		}
		if cur > 64 {
			t.Fatalf("exponential backoff exceeded cap: %d", cur)
		}
		prev = cur
		b.Wait()
	}
	if b.Cur() != 64 {
		t.Fatalf("after 10 waits, bound = %d, want capped at 64", b.Cur())
	}
}

func TestBackoffFibonacciSequence(t *testing.T) {
	b := NewBackoff(PolicyFibonacci, 1, 1000, 1)
	want := []int64{1, 1, 2, 3, 5, 8, 13, 21}
	for i, w := range want {
		if b.Cur() != w {
			t.Fatalf("fib step %d: bound = %d, want %d", i, b.Cur(), w)
		}
		b.Wait()
	}
}

func TestBackoffClampsInvalidBounds(t *testing.T) {
	b := NewBackoff(PolicyExponential, -10, -20, 1)
	if b.Cur() < 1 {
		t.Fatalf("bound = %d, want >= 1 after clamping", b.Cur())
	}
	b.Wait() // must not panic
}

func TestPollDisciplines(t *testing.T) {
	prev := Oversubscribed()
	defer SetOversubscribed(prev)
	// Not oversubscribed: Poll never deschedules, regardless of i.
	SetOversubscribed(false)
	for i := 0; i < 4096; i++ {
		Poll(i)
	}
	// Oversubscribed: Poll must not hang when driven far past the hot
	// window (Gosched path).
	SetOversubscribed(true)
	for i := 0; i < 4096; i++ {
		Poll(i)
	}
}

func TestOversubscriptionFlag(t *testing.T) {
	prev := Oversubscribed()
	defer SetOversubscribed(prev)
	SetOversubscribed(false)
	if Oversubscribed() {
		t.Fatal("flag did not clear")
	}
	got := AutoOversubscribe(1 << 20) // absurdly many workers
	if got {
		t.Fatal("AutoOversubscribe returned wrong previous value")
	}
	if !Oversubscribed() {
		t.Fatal("huge worker count did not set oversubscription")
	}
	AutoOversubscribe(1) // one worker never oversubscribes
	if Oversubscribed() {
		t.Fatal("single worker marked oversubscribed")
	}
}

func TestBackoffWaitYieldsOnlyWhenOversubscribed(t *testing.T) {
	prev := Oversubscribed()
	defer SetOversubscribed(prev)
	old := yield
	defer func() { yield = old }()
	yields := 0
	yield = func() { yields++ }

	SetOversubscribed(true)
	b := NewBackoff(PolicyExponential, 1, 2, 1)
	for i := 0; i < 64; i++ {
		b.Wait()
	}
	if yields == 0 {
		t.Fatal("Backoff.Wait never yielded over 64 oversubscribed attempts")
	}

	yields = 0
	SetOversubscribed(false)
	b = NewBackoff(PolicyExponential, 1, 2, 1)
	for i := 0; i < 64; i++ {
		b.Wait()
	}
	if yields != 0 {
		t.Fatalf("Backoff.Wait yielded %d times with dedicated processors", yields)
	}
}
