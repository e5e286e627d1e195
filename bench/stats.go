package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-bucket latency histogram over nanoseconds: 64
// sub-buckets per octave, so a bucket is at most 1/64 = 1.6 % wide
// (16 per octave was seen hopping 296<->344 ns between runs). Each
// worker owns one and records without synchronization; they are merged
// after the workers have joined.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxExp  = 40 // values clamp at 2^40 ns, about 18 minutes
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// bucketOf maps a value to its bucket: values below 64 are exact, and
// above that the top seven bits select octave and sub-bucket.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	if e >= histMaxExp {
		return histBuckets - 1
	}
	return (e-histSubBits+1)*histSub + int(v>>(e-histSubBits))&(histSub-1)
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := i/histSub + histSubBits - 1
	sub := i % histSub
	w := math.Ldexp(1, e-histSubBits)
	lo = math.Ldexp(1, e) + float64(sub)*w
	return lo, lo + w
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating
// linearly inside the bucket that holds the rank. An empty histogram
// reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}

// iqMean is the interquartile mean: the mean of the middle half of
// xs, the outer quarters trimmed with fractional weights when len(xs)
// is not a multiple of four. It keeps the efficiency of a mean over
// the windows that agree and ignores the few a scheduler hiccup hit.
func iqMean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	trim := float64(n) / 4
	var sum float64
	for i, x := range s {
		// Weight of s[i] is the overlap of [i, i+1) with [trim, n-trim).
		w := math.Min(float64(i+1), float64(n)-trim) - math.Max(float64(i), trim)
		if w > 0 {
			sum += w * x
		}
	}
	return sum / (float64(n) - 2*trim)
}

// geoMean is the geometric mean of positive values; a workload's value
// is the geometric mean over its cells so no cell hides behind a
// faster one.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is what the driver computes spreads with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// stddevPct is the population standard deviation of xs as a
// percentage of their mean (the paper's Fig. 5 fairness measure).
func stddevPct(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0
	}
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return 100 * math.Sqrt(v/float64(len(xs))) / mean
}
