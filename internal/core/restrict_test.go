package core_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
	"repro/internal/registry"
)

// restrictInners enumerates representative inner locks for the
// wrapper: a plain queue lock, a blocking mutex, a cohort lock and the
// CNA extension — GCR must compose with all of them.
func restrictInners() map[string]func(topo *numa.Topology) locks.Mutex {
	return map[string]func(topo *numa.Topology) locks.Mutex{
		"mcs":      func(topo *numa.Topology) locks.Mutex { return locks.NewMCS(topo) },
		"pthread":  func(*numa.Topology) locks.Mutex { return locks.NewPthread() },
		"c-bo-mcs": registry.MustLookup("c-bo-mcs").NewMutex,
		"cna":      func(topo *numa.Topology) locks.Mutex { return locks.NewCNA(topo) },
	}
}

func TestRestrictedMutualExclusion(t *testing.T) {
	for name, mk := range restrictInners() {
		t.Run(name, func(t *testing.T) {
			topo := numa.New(4, 32)
			l := core.NewRestricted(topo, mk(topo), 2)
			locktest.Check(t, topo, locks.ExecFromMutex(l), 0, 32, 200)
		})
	}
}

func TestRestrictedSingleThreadedReacquire(t *testing.T) {
	topo := numa.New(4, 8)
	l := core.NewRestricted(topo, locks.NewMCS(topo), 1)
	p := topo.Proc(0)
	for i := 0; i < 200; i++ {
		l.Lock(p)
		l.Unlock(p)
	}
}

func TestRestrictedOversubscribedStress(t *testing.T) {
	// More goroutines than GOMAXPROCS: the parked surplus must not
	// deadlock the admitted set, and promotions must keep flowing.
	topo := numa.New(4, 64)
	l := core.NewRestricted(topo, locks.NewMCS(topo), 2)
	locktest.Check(t, topo, locks.ExecFromMutex(l), 0, 64, 100)
}

func TestRestrictedFairness(t *testing.T) {
	// K=1 per cluster is the harshest setting: all throughput flows
	// through promotions, so any lost wakeup or ticket skew starves a
	// proc within the window.
	topo := numa.New(2, 16)
	l := core.NewRestricted(topo, locks.NewMCS(topo), 1)
	locktest.CheckFairness(t, topo, l, 16, 300)
}

// gaugeMutex counts, per cluster, the procs inside its Lock — the
// waiters competing for the inner lock — and records the high-water
// mark; Restricted only calls into the inner lock after admission, so
// the mark must respect the admission bound. A holder is not counted:
// Restricted retires its admission before it releases the inner lock,
// so a promoted waiter may enter Lock while the releaser that promoted
// it still holds the inner lock.
type gaugeMutex struct {
	inner  locks.Mutex
	in     []atomic.Int64
	peak   []atomic.Int64
	topo   *numa.Topology
	bounds int64
	bad    atomic.Int64
}

func (g *gaugeMutex) Lock(p *numa.Proc) {
	n := g.in[p.Cluster()].Add(1)
	// Yield while inside the window so other admitted threads get
	// scheduled and the peak is actually observed even on GOMAXPROCS=1.
	runtime.Gosched()
	if n > g.bounds {
		g.bad.Add(1)
	} else {
		for {
			old := g.peak[p.Cluster()].Load()
			if n <= old || g.peak[p.Cluster()].CompareAndSwap(old, n) {
				break
			}
		}
	}
	g.inner.Lock(p)
	g.in[p.Cluster()].Add(-1)
}

func (g *gaugeMutex) Unlock(p *numa.Proc) { g.inner.Unlock(p) }

func TestRestrictedBoundsActiveWaitersPerCluster(t *testing.T) {
	const k = 2
	topo := numa.New(4, 32)
	g := &gaugeMutex{
		inner:  locks.NewMCS(topo),
		in:     make([]atomic.Int64, topo.Clusters()),
		peak:   make([]atomic.Int64, topo.Clusters()),
		topo:   topo,
		bounds: k,
	}
	l := core.NewRestricted(topo, g, k)
	locktest.Check(t, topo, locks.ExecFromMutex(l), 0, 32, 300)
	if n := g.bad.Load(); n != 0 {
		t.Fatalf("admission bound exceeded %d times: >%d same-cluster threads waiting for the inner lock", n, k)
	}
	// With 8 procs per cluster all contending, the bound should
	// actually be reached, or the wrapper is throttling harder than
	// configured.
	for c := 0; c < topo.Clusters(); c++ {
		if p := g.peak[c].Load(); p != k {
			t.Errorf("cluster %d peak concurrency %d, want %d", c, p, k)
		}
	}
}

func TestRestrictedWaitingGauge(t *testing.T) {
	topo := numa.New(1, 4)
	l := core.NewRestricted(topo, locks.NewMCS(topo), 1)
	if w := l.Waiting(0); w != 0 {
		t.Fatalf("idle lock reports %d waiting", w)
	}
	p0 := topo.Proc(0)
	l.Lock(p0)
	acquired := make(chan struct{})
	go func() {
		p1 := topo.Proc(1)
		l.Lock(p1)
		close(acquired)
		l.Unlock(p1)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for l.Waiting(0) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("throttled waiter never counted")
		}
		time.Sleep(time.Millisecond)
	}
	l.Unlock(p0)
	select {
	case <-acquired:
	case <-time.After(10 * time.Second):
		t.Fatal("throttled waiter never promoted")
	}
}
