package main

import (
	"math"
	"sort"
	"testing"
)

func TestHistQuantilesAgainstSortedSlice(t *testing.T) {
	r := stream(1, 99)
	var h hist
	var xs []float64
	for i := 0; i < 200_000; i++ {
		// Log-uniform over 50 ns .. 50 ms, the range calls fall in.
		v := int64(50 * math.Pow(1e6, float64(r.next()>>11)/(1<<53)))
		h.record(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := xs[int(q*float64(len(xs)-1))]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.016 {
			t.Errorf("q%.3f = %.1f, sorted slice says %.1f (off by %.2f%%)", q, got, want, 100*math.Abs(got-want)/want)
		}
	}
}

func TestHistBucketsAreContiguousAndNarrow(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 296, 344, 1000, 1 << 20, 1<<30 + 12345} {
		i := bucketOf(v)
		lo, hi := bucketBounds(i)
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d in bucket %d = [%g, %g)", v, i, lo, hi)
		}
		if v >= histSub && (hi-lo)/lo > 1.0/histSub {
			t.Errorf("bucket %d is %.2f%% wide", i, 100*(hi-lo)/lo)
		}
	}
	if a, b := bucketOf(296), bucketOf(344); a == b {
		t.Errorf("296 ns and 344 ns share bucket %d", a)
	}
	var a, b hist
	a.record(100)
	b.record(100)
	b.record(1 << 50) // clamps into the last bucket
	a.merge(&b)
	if a.n != 3 || a.counts[histBuckets-1] != 1 {
		t.Errorf("merge: n=%d, last bucket %d", a.n, a.counts[histBuckets-1])
	}
}

func TestEstimators(t *testing.T) {
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("iqMean of 1..8", iqMean([]float64{8, 1, 7, 2, 6, 3, 5, 4}), 4.5)
	near("iqMean ignores outliers", iqMean([]float64{1000, 4, 5, 6, 3, -1000, 4.5, 5.5}), 4.75)
	// n=5 trims 1.25 values from each end: weights .75, 1, .75 on 2, 3, 4.
	near("iqMean with fractional trim", iqMean([]float64{1, 2, 3, 4, 100}), 3)
	near("iqMean of one", iqMean([]float64{7}), 7)
	near("geoMean", geoMean([]float64{2, 8}), 4)
	near("geoMean with a zero cell", geoMean([]float64{2, 0}), 0)
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	near("q1", q1, 2.75)
	near("median", med, 5.5)
	near("q3", q3, 8.25)
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	near("q1 of five", q1, 1.5)
	near("median of five", med, 4)
	near("q3 of five", q3, 12)
	near("stddevPct", stddevPct([]float64{90, 110}), 10)
}
