package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/locktest"
	"repro/internal/numa"
)

func TestACLHAbortThenReacquire(t *testing.T) {
	topo := testTopo()
	l := core.NewACLH(topo)
	p0, p1, p2 := topo.Proc(0), topo.Proc(1), topo.Proc(2)
	if !l.TryLockFor(p0, time.Second) {
		t.Fatal("p0 could not acquire a free lock")
	}
	// p1 aborts, leaving its node in the queue.
	if l.TryLockFor(p1, 2*time.Millisecond) {
		t.Fatal("p1 acquired a held lock")
	}
	// p2 enqueues behind p1's abandoned node, then p0 releases; p2 must
	// skip the aborted node and acquire.
	acquired := make(chan bool, 1)
	go func() { acquired <- l.TryLockFor(p2, time.Minute) }()
	time.Sleep(5 * time.Millisecond)
	l.Unlock(p0)
	select {
	case ok := <-acquired:
		if !ok {
			t.Fatal("p2 gave up behind the aborted node")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("p2 never acquired past the aborted node")
	}
	l.Unlock(p2)
	// The aborter itself must be able to come back.
	if !l.TryLockFor(p1, time.Second) {
		t.Fatal("aborter could not reacquire a free lock")
	}
	l.Unlock(p1)
}

func TestACLHChainOfAborts(t *testing.T) {
	topo := testTopo()
	l := core.NewACLH(topo)
	p0 := topo.Proc(0)
	if !l.TryLockFor(p0, time.Second) {
		t.Fatal("p0 could not acquire a free lock")
	}
	// Several waiters abort in sequence, each stacking an abandoned
	// node onto the queue.
	for i := 1; i <= 4; i++ {
		if l.TryLockFor(topo.Proc(i), time.Millisecond) {
			t.Fatalf("proc %d acquired a held lock", i)
		}
	}
	l.Unlock(p0)
	// A fresh thread must traverse all four aborted nodes.
	if !l.TryLockFor(topo.Proc(5), 5*time.Second) {
		t.Fatal("could not acquire past a chain of aborted nodes")
	}
	l.Unlock(topo.Proc(5))
}

func TestACLHConcurrentAborts(t *testing.T) {
	topo := numa.New(4, 32)
	l := core.NewACLH(topo)
	successes, aborts := locktest.CheckTryMutex(t, topo, l, 32, 200, 200*time.Microsecond)
	t.Logf("A-CLH stress: %d successes, %d aborts", successes, aborts)
}
