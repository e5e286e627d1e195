package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// A workload is a named closed-loop load that puts most of its work
// into one layer. It is built as a stack of one or more cells
// (configurations of the same load, e.g. one per lock); every window
// of the measurement visits every cell.
type workload struct {
	name string
	why  string
	// every is the traced run's sampling stride: one call in every
	// records its span tree.
	every int
	// build constructs the whole stack (topology, locks, stores
	// populated with their keys, server listening) and ends with the
	// workload's correctness pre-check, which is fixed work, so that
	// set-up time repeats. A nil tracer builds it with no interposer.
	build func(seed uint64, tr *tracer) (*stack, error)
}

type stack struct {
	cells []*cell
	// layer holds what the build itself measured, by per-layer metric name.
	layer map[string]float64
	close func() error
}

// cell is one configuration of a workload.
type cell struct {
	name string
	// window runs the cell's workers for d and reports what they did;
	// win numbers the window, so its inputs are a function of the seed.
	window func(d time.Duration, win int) (windowResult, error)
}

// worker is one closed-loop client: it issues its next call when the
// previous one returns. think runs between calls and is not timed.
type worker struct {
	think func()
	call  func() (attempted, ok int)
}

type windowResult struct {
	attempted, ok int64
	// rate is verified operations per second, summed over workers, each
	// over its own elapsed time.
	rate      float64
	perWorker []float64 // ok operations of each worker
	lat       hist      // time of one call, all workers
	op        hist      // lock-handoff, traced run: time of one operation
	// layer holds counts the cell took during the window.
	layer map[string]float64
}

// runWindow drives the workers for d. Each worker records into its own
// histogram with no lock on the hot path; they are merged after the join.
func runWindow(d time.Duration, ws []worker) windowResult {
	type out struct {
		attempted, ok int64
		elapsed       time.Duration
		lat           hist
	}
	outs := make([]out, len(ws))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(w worker, o *out) {
			defer wg.Done()
			<-start
			began := time.Now()
			for {
				if w.think != nil {
					w.think()
				}
				t0 := time.Now()
				a, k := w.call()
				t1 := time.Now()
				o.lat.record(int64(t1.Sub(t0)))
				o.attempted += int64(a)
				o.ok += int64(k)
				if o.elapsed = t1.Sub(began); o.elapsed >= d {
					return
				}
			}
		}(ws[i], &outs[i])
	}
	close(start)
	wg.Wait()
	var r windowResult
	for i := range outs {
		o := &outs[i]
		r.attempted += o.attempted
		r.ok += o.ok
		r.rate += float64(o.ok) / o.elapsed.Seconds()
		r.perWorker = append(r.perWorker, float64(o.ok))
		r.lat.merge(&o.lat)
	}
	return r
}

// spinBoth keeps both cores busy for d: a vCPU that has been idle runs
// at about half speed for its first second, and nothing is timed before
// that has passed.
func spinBoth(d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for end := time.Now().Add(d); time.Now().Before(end); {
				pause(4096)
			}
		}()
	}
	wg.Wait()
}

const (
	spinUp         = time.Second
	warmUp         = 1500 * time.Millisecond
	measureWindows = 40
	traceWindows   = 10
	traceWindow    = 250 * time.Millisecond
	setupRepeats   = 5 // after one discarded construction
)

// cellSummary is a cell's value over the run: the interquartile mean
// of its per-window values.
type cellSummary struct {
	name                  string
	opsPerS, p50ns, p99ns float64
	attempted, ok         int64
	fairnessPct           float64
	op                    hist               // merged over windows
	layer                 map[string]float64 // summed over windows
}

// result is one workload's end-to-end outcome.
type result struct {
	opsPerS, p50us, p99us, okShare float64
	setupS                         float64
	attempted, failed              int64
	cells                          []cellSummary
	layer                          map[string]float64 // from the stack's build
}

// runWindows warms the stack up, then measures `windows` windows of
// length d. Every window visits every cell, for d/cells each, and the
// window's value is the geometric mean over its cells, so that no cell
// hides behind a faster one and all cells of a value were measured
// under the same state of the host (this one has regimes of a second or
// two that speed one locking up and slow another down, as if the two
// vCPUs sometimes shared a core; taken per window the geometric mean
// hardly moves).
// The workload's value is the interquartile mean over the windows, a
// cell's value the interquartile mean over its slices.
func runWindows(name string, st *stack, windows int, d, warm time.Duration) (result, error) {
	n := len(st.cells)
	slice := d / time.Duration(n)
	for i, c := range st.cells { // untimed
		if _, err := c.window(warm/time.Duration(n), -1-i); err != nil {
			return result{}, fmt.Errorf("%s/%s warm-up: %w", name, c.name, err)
		}
	}
	type series struct{ rate, p50, p99, fair []float64 }
	per := make([]series, n)
	var all series
	sums := make([]cellSummary, n)
	for i, c := range st.cells {
		sums[i] = cellSummary{name: c.name, layer: make(map[string]float64)}
	}
	for w := 0; w < windows; w++ {
		var win series
		for i, c := range st.cells {
			r, err := c.window(slice, w)
			if err != nil {
				return result{}, fmt.Errorf("%s/%s window %d: %w", name, c.name, w, err)
			}
			p50, p99 := r.lat.quantile(0.50), r.lat.quantile(0.99)
			win.rate, per[i].rate = append(win.rate, r.rate), append(per[i].rate, r.rate)
			win.p50, per[i].p50 = append(win.p50, p50), append(per[i].p50, p50)
			win.p99, per[i].p99 = append(win.p99, p99), append(per[i].p99, p99)
			per[i].fair = append(per[i].fair, stddevPct(r.perWorker))
			sums[i].attempted += r.attempted
			sums[i].ok += r.ok
			sums[i].op.merge(&r.op)
			for k, v := range r.layer {
				sums[i].layer[k] += v
			}
		}
		all.rate = append(all.rate, geoMean(win.rate))
		all.p50 = append(all.p50, geoMean(win.p50))
		all.p99 = append(all.p99, geoMean(win.p99))
	}
	res := result{layer: st.layer}
	for i := range sums {
		s := &sums[i]
		s.opsPerS, s.p50ns, s.p99ns = iqMean(per[i].rate), iqMean(per[i].p50), iqMean(per[i].p99)
		s.fairnessPct = iqMean(per[i].fair)
		res.attempted += s.attempted
		res.failed += s.attempted - s.ok
		res.cells = append(res.cells, *s)
	}
	res.opsPerS = iqMean(all.rate)
	res.p50us = iqMean(all.p50) / 1e3
	res.p99us = iqMean(all.p99) / 1e3
	if res.attempted > 0 {
		res.okShare = float64(res.attempted-res.failed) / float64(res.attempted)
	}
	return res, nil
}

// measure is the end-to-end run of one workload: both cores spin, then
// set-up is timed, then the workload runs untimed, then it is measured.
// No interposer is in place.
func measure(wl *workload, seed uint64, seconds float64) (result, error) {
	spinBoth(spinUp)
	var st *stack
	var setups []float64
	for i := 0; i <= setupRepeats; i++ {
		t0 := time.Now()
		s, err := wl.build(seed, nil)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
		if i == setupRepeats {
			st = s // the last construction is the one measured on
			break
		}
		if err := s.close(); err != nil {
			return result{}, fmt.Errorf("%s tear-down: %w", wl.name, err)
		}
		runtime.GC() // so that every construction starts from the same heap
	}
	d := time.Duration(seconds * float64(time.Second) / measureWindows)
	res, err := runWindows(wl.name, st, measureWindows, d, warmUp)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	res.setupS = median(setups)
	return res, err
}
