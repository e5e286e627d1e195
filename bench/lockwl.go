package main

import (
	"fmt"
	"time"
)

// lock-handoff is LBench's shape on the bare locks: acquire, the
// paper's critical section (two simulated lines of four writes, and one
// plain shared counter), release, then a think of spin.Pause(rand[0,
// 1024]). The lock and executor code does nearly all the work and the
// store and wire layers none, so a lock change shows here and must not
// show on the wire workloads.
var lockHandoff = &workload{
	name:  "lock-handoff",
	why:   "bare locks and executors do nearly all the work: acquire, the paper's critical section, release, seeded think",
	every: 256,
	build: buildLockHandoff,
}

// Places. same: both workers in cluster 0, so every hand-off takes the
// local path; cross: one worker per cluster, so every hand-off crosses
// clusters through the global lock.
var places = []struct {
	name  string
	procs [2]int
}{
	{"same", [2]int{0, 2}},
	{"cross", [2]int{0, 1}},
}

const (
	maxThink = 1024
	// execName is the executor lock-handoff and store-write exercise:
	// adaptive combining over c-bo-mcs.
	execName = "comb-a"
	// opsPerCall is the number of hand-offs in one timed call.
	opsPerCall = 4
	// Calls per worker of a cell's pre-check: fixed work that makes the
	// set-up long enough to repeat.
	lockPrecheckCalls = 12_000
)

// lockCell is one lock (or executor) at one place, with the state its
// critical section guards.
type lockCell struct {
	name  string
	tr    *tracer
	lock  mutex    // bare-lock cells
	exec  executor // executor cells
	procs [2]*proc
	cs    criticalSection

	_ [64]byte
	// Guarded by the lock under test and by nothing else: a lock that
	// lets two critical sections overlap loses counter updates.
	counter     int64
	lastCluster int
	migrations  int64
	_           [64]byte
}

// critical reads the counter first and writes it last, so any overlap
// of two critical sections loses an update.
func (c *lockCell) critical(p *proc) {
	n := c.counter
	c.cs.run(p)
	if cl := p.Cluster(); cl != c.lastCluster {
		c.lastCluster = cl
		c.migrations++
	}
	c.counter = n + 1
}

// worker returns the i-th worker of the cell. A call is opsPerCall
// hand-offs, each preceded by its think, whose length comes from r.
// Four make a call of about 3 us: long enough that the two clock reads
// around it are 2 %, and placed so that its 99th percentile repeats.
// This host stalls a vCPU for 3 to 30 us some 3000 times a second; the
// p99 of a single 0.3 us operation sits at the edge of that population
// and ranged 40 % between runs, the p99 of 16 or 64 operations sits in
// its thin upper tail and ranged 50 to 60 %, the p99 of four sits in
// its dense middle and ranged 25 % (interquartile 10 %).
//
// In the traced run every single operation is also timed into ops (two
// clock reads, no span), except the few that record their span tree:
// that is where the per-layer op_p50_ns and op_p99_ns come from.
func (c *lockCell) worker(i int, r *rng, ops *hist) worker {
	p := c.procs[i]
	ct := c.tr.worker(spanLockOp, p)
	section := func() { c.critical(p) }
	return worker{call: func() (int, int) {
		for n := 0; n < opsPerCall; n++ {
			pause(r.intn(maxThink + 1))
			var t0 time.Time
			if ct != nil {
				ct.begin()
				t0 = time.Now()
			}
			if c.exec != nil {
				c.exec.Exec(p, section)
			} else {
				c.lock.Lock(p)
				c.critical(p)
				c.lock.Unlock(p)
			}
			if ct != nil {
				if ct.id == 0 {
					ops.record(int64(time.Since(t0)))
				}
				ct.end()
			}
		}
		return opsPerCall, opsPerCall
	}}
}

// verify charges every operation the counter did not see: the cell is
// correct when mutual exclusion held and no closure was lost or run twice.
func (c *lockCell) verify(before int64, r *windowResult) {
	lost := r.attempted - (c.counter - before)
	if lost < 0 {
		lost = -lost
	}
	r.ok = max(r.attempted-lost, 0)
	if r.attempted > 0 {
		r.rate *= float64(r.ok) / float64(r.attempted)
	}
}

func (c *lockCell) window(seed uint64, cellIdx int) func(time.Duration, int) (windowResult, error) {
	return func(d time.Duration, win int) (windowResult, error) {
		r0 := stream(seed, tagLock, uint64(cellIdx), uint64(win), 0)
		r1 := stream(seed, tagLock, uint64(cellIdx), uint64(win), 1)
		before, mig, acq := c.counter, c.migrations, c.tr.acquisitions()
		var ops [2]hist
		r := runWindow(d, []worker{c.worker(0, &r0, &ops[0]), c.worker(1, &r1, &ops[1])})
		c.verify(before, &r)
		r.op.merge(&ops[0])
		r.op.merge(&ops[1])
		r.layer = map[string]float64{
			"ops":          float64(r.attempted),
			"migrations":   float64(c.migrations - mig),
			"acquisitions": float64(c.tr.acquisitions() - acq),
		}
		c.tr.drain(c.name)
		return r, nil
	}
}

// precheck runs a fixed number of calls on both workers, with the
// thinks of a fixed stream, and checks the counter.
func (c *lockCell) precheck() error {
	before := c.counter
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		w := c.worker(i, &rng{s: uint64(i)}, new(hist))
		go func() {
			for n := 0; n < lockPrecheckCalls; n++ {
				w.call()
			}
			done <- struct{}{}
		}()
	}
	<-done
	<-done
	c.tr.drain(c.name)
	if got, want := c.counter-before, int64(2*lockPrecheckCalls*opsPerCall); got != want {
		return fmt.Errorf("%s: counter advanced %d over %d operations", c.name, got, want)
	}
	return nil
}

// buildLockHandoff builds the ten cells: {mcs, cna, c-tkt-tkt, c-bo-mcs
// through Lock/Unlock; comb-a over c-bo-mcs through Exec} x {same, cross}.
func buildLockHandoff(seed uint64, tr *tracer) (*stack, error) {
	topo := newTopology()
	var locks []*lockCell
	for _, pl := range places {
		procs := [2]*proc{topo.Proc(pl.procs[0]), topo.Proc(pl.procs[1])}
		for _, bl := range baseLocks {
			m, err := bl.new(topo)
			if err != nil {
				return nil, err
			}
			locks = append(locks, &lockCell{name: bl.name + "." + pl.name, tr: tr, procs: procs,
				lock: tr.wrapMutex(m, spanLockCS), cs: newCriticalSection(topo)})
		}
		locks = append(locks, &lockCell{name: execName + "." + pl.name, tr: tr, procs: procs,
			exec: newCombA(topo, tr.wrapMutex(newCBOMCS(topo), spanLockCS)), cs: newCriticalSection(topo)})
	}
	return lockStack(seed, locks)
}

// lockStack pre-checks the cells and wraps them as a stack.
func lockStack(seed uint64, locks []*lockCell) (*stack, error) {
	st := &stack{close: func() error { return nil }}
	for i, c := range locks {
		c.lastCluster = -1
		if err := c.precheck(); err != nil {
			return nil, err
		}
		st.cells = append(st.cells, &cell{name: c.name, window: c.window(seed, i)})
	}
	return st, nil
}
