package spin

// XorShift is a tiny per-thread pseudo-random number generator used to
// jitter backoff delays. The zero value is invalid; seed with NewXorShift.
type XorShift uint64

// NewXorShift returns a generator seeded from id; distinct ids yield
// distinct, non-zero states.
func NewXorShift(id uint64) XorShift {
	s := id*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return XorShift(s)
}

// Next advances the generator and returns the next 64-bit value.
func (x *XorShift) Next() uint64 {
	s := uint64(*x)
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	*x = XorShift(s)
	return s
}

// IntN returns a uniformly distributed value in [0, n). n must be > 0.
func (x *XorShift) IntN(n int64) int64 {
	return int64(x.Next() % uint64(n))
}

// Policy selects the delay progression of a Backoff.
type Policy int

const (
	// PolicyExponential doubles the bound after every failed attempt.
	PolicyExponential Policy = iota
	// PolicyFibonacci grows the bound along the Fibonacci sequence,
	// the progression used by the paper's Fib-BO lock.
	PolicyFibonacci
)

// Backoff produces a bounded, randomized sequence of spin delays. It is
// not safe for concurrent use; each spinning thread owns one instance.
type Backoff struct {
	policy   Policy
	max      int64
	cur      int64
	fibPrev  int64
	rng      XorShift
	attempts int
}

// NewBackoff returns a backoff generator with delays jittered in
// [0, cur) pause units, where cur starts at min and grows per policy up
// to max. min and max are clamped to be at least 1.
func NewBackoff(policy Policy, min, max int64, seed uint64) Backoff {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	return Backoff{
		policy:  policy,
		max:     max,
		cur:     min,
		fibPrev: 0,
		rng:     NewXorShift(seed),
	}
}

// hotAttempts is Wait's spin-then-yield threshold, mirroring Poll's:
// early attempts never deschedule (hand-offs must stay cheap when
// cores are available), later ones always yield so oversubscribed
// spinners cannot starve the lock holder.
const hotAttempts = 32

// Wait blocks for the next delay in the sequence and advances it.
func (b *Backoff) Wait() {
	d := b.cur
	if d > 1 {
		d = d/2 + b.rng.IntN(d/2+1) // jitter in [d/2, d]
	}
	Pause(int(d))
	b.attempts++
	if b.attempts > hotAttempts && oversubscribed.Load() {
		yield()
	}
	switch b.policy {
	case PolicyExponential:
		b.cur *= 2
	case PolicyFibonacci:
		b.cur, b.fibPrev = b.cur+b.fibPrev, b.cur
	}
	if b.cur > b.max {
		b.cur = b.max
	}
}
