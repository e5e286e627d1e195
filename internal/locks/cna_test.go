package locks_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
)

func TestCNAMutualExclusion(t *testing.T) {
	topo := testTopo()
	locktest.Check(t, topo, locks.ExecFromMutex(locks.NewCNA(topo)), 0, stressProcs(), 300)
}

func TestCNASingleThreadedReacquire(t *testing.T) {
	topo := testTopo()
	l := locks.NewCNA(topo)
	p := topo.Proc(0)
	for i := 0; i < 100; i++ {
		l.Lock(p)
		l.Unlock(p)
	}
}

func TestCNAHandoff(t *testing.T) {
	topo := testTopo()
	locktest.Check(t, topo, locks.ExecFromMutex(locks.NewCNA(topo)), 0, 2, 2000)
}

func TestCNAOversubscribedStress(t *testing.T) {
	topo := numa.New(4, 64)
	locktest.Check(t, topo, locks.ExecFromMutex(locks.NewCNA(topo)), 0, 64, 100)
}

func TestCNASingleClusterDegeneratesToMCS(t *testing.T) {
	// One cluster: every waiter is local, the secondary list is never
	// used, and the lock must behave exactly like MCS.
	topo := numa.New(1, 16)
	locktest.Check(t, topo, locks.ExecFromMutex(locks.NewCNA(topo)), 0, 16, 300)
}

func TestCNAStreakValidation(t *testing.T) {
	topo := testTopo()
	if l := locks.NewCNAStreak(topo, 0); l == nil { // 0 selects the default
		t.Fatal("nil lock")
	}
	l := locks.NewCNAStreak(topo, -1) // unbounded streak must still exclude
	locktest.Check(t, topo, locks.ExecFromMutex(l), 0, 8, 200)
}

func TestCNAFairnessUnderContention(t *testing.T) {
	topo := testTopo()
	locktest.CheckFairness(t, topo, locks.NewCNA(topo), 16, 300)
}

// enqueueWaiters acquires l on p0, then starts one waiter goroutine
// per listed proc id, pausing between starts so queue order matches
// the list. Each waiter records its id on acquisition and unlocks.
// It returns the recorded order after all waiters finish.
func enqueueWaiters(t *testing.T, l locks.Mutex, topo *numa.Topology, ids []int) []int {
	t.Helper()
	p0 := topo.Proc(0)
	l.Lock(p0)
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	for _, id := range ids {
		wg.Add(1)
		go func(p *numa.Proc) {
			defer wg.Done()
			l.Lock(p)
			mu.Lock()
			order = append(order, p.ID())
			mu.Unlock()
			l.Unlock(p)
		}(topo.Proc(id))
		time.Sleep(20 * time.Millisecond) // let the waiter enqueue
	}
	l.Unlock(p0)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("waiters never drained: lost hand-off")
	}
	return order
}

func TestCNADefersRemoteWaiters(t *testing.T) {
	// 4 clusters: procs 0,4,8 are cluster 0; proc 1 is cluster 1.
	// Holder is cluster 0 and the queue is [1, 4]: CNA must skip the
	// remote waiter and grant its cluster mate first.
	topo := testTopo()
	order := enqueueWaiters(t, locks.NewCNA(topo), topo, []int{1, 4})
	want := []int{4, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("acquisition order %v, want %v (remote waiter not deferred)", order, want)
		}
	}
}

func TestCNAStreakBoundServesDeferred(t *testing.T) {
	// Streak bound 1 and queue [1, 4, 8]: the first unlock grants proc 4
	// (local, deferring proc 1); proc 4's unlock has exhausted the
	// streak, so the deferred remote waiter must run before proc 8.
	topo := testTopo()
	order := enqueueWaiters(t, locks.NewCNAStreak(topo, 1), topo, []int{1, 4, 8})
	want := []int{4, 1, 8}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("acquisition order %v, want %v (streak bound not honored)", order, want)
		}
	}
}

func TestCNAEmptyMainQueueServesSecondary(t *testing.T) {
	// Queue [1, 4] with an unbounded streak: proc 4 is granted first and
	// proc 1 sits on the secondary list with the main queue empty; proc
	// 4's unlock must install the secondary list as the queue.
	topo := testTopo()
	order := enqueueWaiters(t, locks.NewCNAStreak(topo, -1), topo, []int{1, 4})
	want := []int{4, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("acquisition order %v, want %v (secondary list dropped)", order, want)
		}
	}
}
