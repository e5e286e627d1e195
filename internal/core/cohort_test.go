package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/numa"
	"repro/internal/spin"
)

// fakeGlobal is a single-threaded protocol probe for the global slot.
// It records the proc of its latest Lock and Unlock.
type fakeGlobal struct {
	held       bool
	locks      int
	unlocks    int
	lockedBy   *numa.Proc
	unlockedBy *numa.Proc
	t          *testing.T
}

func (g *fakeGlobal) Lock(p *numa.Proc) {
	if g.held {
		g.t.Fatal("global lock acquired while already held")
	}
	g.held = true
	g.locks++
	g.lockedBy = p
}

func (g *fakeGlobal) Unlock(p *numa.Proc) {
	if !g.held {
		g.t.Fatal("global lock released while not held")
	}
	g.held = false
	g.unlocks++
	g.unlockedBy = p
}

// fakeLocal is a single-threaded protocol probe for the local slot.
type fakeLocal struct {
	held   bool
	waiter bool // drives Alone
	t      *testing.T
}

func (l *fakeLocal) Lock(_ *numa.Proc) {
	if l.held {
		l.t.Fatal("local lock acquired while already held")
	}
	l.held = true
}

func (l *fakeLocal) Unlock(_ *numa.Proc) {
	if !l.held {
		l.t.Fatal("local lock released while not held")
	}
	l.held = false
}

func (l *fakeLocal) Alone(_ *numa.Proc) bool { return !l.waiter }

func oneClusterTopo() *numa.Topology { return numa.New(1, 4) }

// wantCounts checks the global lock and unlock counts so far.
func wantCounts(t *testing.T, step string, g *fakeGlobal, locks, unlocks int) {
	t.Helper()
	if g.locks != locks || g.unlocks != unlocks {
		t.Fatalf("%s: global locks/unlocks = %d/%d, want %d/%d", step, g.locks, g.unlocks, locks, unlocks)
	}
}

func TestCohortProtocolGlobalAcquiredOnGlobalRelease(t *testing.T) {
	topo := oneClusterTopo()
	fg := &fakeGlobal{t: t}
	fl := &fakeLocal{t: t}
	c := NewCohortLock(topo, fg, func(int) Local { return fl })
	p := topo.Proc(0)

	c.Lock(p)
	wantCounts(t, "fresh lock", fg, 1, 0)
	c.Unlock(p) // no waiter: must release globally
	wantCounts(t, "lone release", fg, 1, 1)
	// After a global release the next acquirer must take it again.
	c.Lock(p)
	wantCounts(t, "reacquire", fg, 2, 1)
	c.Unlock(p)
	wantCounts(t, "second release", fg, 2, 2)
}

func TestCohortProtocolLocalHandoffSkipsGlobal(t *testing.T) {
	topo := oneClusterTopo()
	fg := &fakeGlobal{t: t}
	fl := &fakeLocal{t: t, waiter: true}
	c := NewCohortLock(topo, fg, func(int) Local { return fl })
	p := topo.Proc(0)

	c.Lock(p) // global acquired
	c.Unlock(p)
	wantCounts(t, "release to a waiting cohort", fg, 1, 0)

	// The next local acquisition inherits the global lock.
	c.Lock(p)
	wantCounts(t, "inheriting acquisition", fg, 1, 0)
	fl.waiter = false
	c.Unlock(p)
	wantCounts(t, "release once the cohort emptied", fg, 1, 1)
}

func TestCohortProtocolHandoffLimit(t *testing.T) {
	topo := oneClusterTopo()
	fg := &fakeGlobal{t: t}
	fl := &fakeLocal{t: t, waiter: true} // perpetual waiter
	c := NewCohortLock(topo, fg, func(int) Local { return fl }, WithHandoffLimit(3))
	p := topo.Proc(0)

	// Hand-offs 1..3 local, the 4th must release the global lock.
	for i, unlocks := range []int{0, 0, 0, 1} {
		c.Lock(p)
		c.Unlock(p)
		wantCounts(t, fmt.Sprintf("release %d", i+1), fg, 1, unlocks)
	}
	// Budget must reset after a global release.
	c.Lock(p)
	c.Unlock(p)
	wantCounts(t, "post-reset release", fg, 2, 1)
}

func TestCohortProtocolUnboundedHandoffs(t *testing.T) {
	topo := oneClusterTopo()
	fg := &fakeGlobal{t: t}
	fl := &fakeLocal{t: t, waiter: true}
	c := NewCohortLock(topo, fg, func(int) Local { return fl }, WithHandoffLimit(-1))
	p := topo.Proc(0)

	for i := 0; i < 500; i++ {
		c.Lock(p)
		c.Unlock(p)
	}
	if fg.unlocks != 0 {
		t.Fatalf("unbounded cohort released the global lock %d times", fg.unlocks)
	}
}

// The global lock is released with the proc that acquired it, even
// when a cohort-mate releases it after local hand-offs: a global lock
// keyed by proc (locks.MCS) would otherwise release a node it never
// enqueued.
func TestCohortReleasesGlobalOnBehalfOfAcquirer(t *testing.T) {
	topo := oneClusterTopo()
	fg := &fakeGlobal{t: t}
	fl := &fakeLocal{t: t, waiter: true}
	c := NewCohortLock(topo, fg, func(int) Local { return fl })
	p0, p1 := topo.Proc(0), topo.Proc(1)

	c.Lock(p0)
	c.Unlock(p0) // local hand-off to p1
	fl.waiter = false
	c.Lock(p1)
	c.Unlock(p1) // p1 releases globally
	wantCounts(t, "after the cohort-mate's release", fg, 1, 1)
	if fg.lockedBy != p0 || fg.unlockedBy != p0 {
		t.Fatalf("global locked by proc %d, unlocked with proc %d; want both proc 0",
			fg.lockedBy.ID(), fg.unlockedBy.ID())
	}
}

// countingGlobal is a real global lock that counts Lock calls.
type countingGlobal struct {
	GlobalBO
	locks atomic.Int32
}

func (g *countingGlobal) Lock(p *numa.Proc) {
	g.locks.Add(1)
	g.GlobalBO.Lock(p)
}

// Global ownership belongs to one cluster: while cluster 0 keeps the
// global lock across a local hand-off, cluster 1's first Lock must
// still wait on the global lock instead of entering.
func TestCohortOwnershipIsPerCluster(t *testing.T) {
	topo := numa.New(2, 4)
	g := &countingGlobal{}
	fls := []*fakeLocal{{t: t, waiter: true}, {t: t}}
	c := NewCohortLock(topo, g, func(cluster int) Local { return fls[cluster] })
	p0, p1 := topo.Proc(0), topo.Proc(1) // clusters 0 and 1

	c.Lock(p0)
	c.Unlock(p0) // cluster 0 keeps the global lock
	var entered atomic.Bool
	done := make(chan struct{})
	go func() {
		c.Lock(p1)
		entered.Store(true)
		c.Unlock(p1)
		close(done)
	}()
	deadline := spin.Deadline(10 * time.Second)
	for i := 0; g.locks.Load() < 2; i++ {
		if entered.Load() {
			t.Fatal("cluster 1 entered without the global lock while cluster 0 owns it")
		}
		if spin.Expired(deadline) {
			t.Fatal("cluster 1 never reached the global lock")
		}
		spin.Poll(i)
	}
	if entered.Load() {
		t.Fatal("cluster 1 entered while cluster 0 owns the global lock")
	}
	// Cluster 0's next holder releases globally; cluster 1 then enters.
	fls[0].waiter = false
	c.Lock(p0)
	c.Unlock(p0)
	<-done
	if n := g.locks.Load(); n != 2 {
		t.Fatalf("global Lock calls = %d, want 2 (one per cluster)", n)
	}
}

func TestDefaultHandoffLimitApplied(t *testing.T) {
	topo := oneClusterTopo()
	c := newCBOMCS(topo)
	if got := c.HandoffLimit(); got != DefaultHandoffLimit {
		t.Fatalf("HandoffLimit = %d, want %d", got, DefaultHandoffLimit)
	}
	a := NewAbortableCohortLock(topo, NewGlobalBO(), func(int) AbortableLocal { return NewACLHLocal(topo) }, WithHandoffLimit(7))
	if got := a.HandoffLimit(); got != 7 {
		t.Fatalf("abortable HandoffLimit = %d, want 7", got)
	}
}
