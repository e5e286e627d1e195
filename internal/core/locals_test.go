package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/spin"
)

// localsUnderTest unifies the four non-abortable local locks for
// table-driven semantics tests.
func localsUnderTest(topo *numa.Topology) map[string]Local {
	return map[string]Local{
		"local-bo":     Blocking(NewABOLocal()),
		"local-ticket": locks.NewTicket(topo),
		"local-mcs":    locks.NewMCS(topo),
		"local-clh":    Blocking(NewACLHLocal(topo)),
	}
}

// TestBlockingLocalReleasesGlobally: Blocking never leaves its lock in
// release-local state, after an uncontended cycle or a hand-off to a
// waiter alike, so an acquirer reading the wrapped lock directly sees
// release-global. The blocking cohort keeps the cluster's claim on the
// global lock in its own record; a release-local word would tell an
// abortable acquirer it inherits a global lock it does not hold.
func TestBlockingLocalReleasesGlobally(t *testing.T) {
	topo := numa.New(1, 8)
	for name, l := range map[string]AbortableLocal{
		"a-bo":  NewABOLocal(),
		"a-clh": NewACLHLocal(topo),
	} {
		t.Run(name, func(t *testing.T) {
			b := Blocking(l)
			p0, p1, p2 := topo.Proc(0), topo.Proc(1), topo.Proc(2)
			awaitWaiter := func(holder *numa.Proc) {
				for i := 0; b.Alone(holder); i++ {
					spin.Poll(i)
					if i > 1<<22 {
						t.Fatal("waiter never became visible to Alone")
					}
				}
			}
			b.Lock(p0)
			b.Unlock(p0)
			if r, ok := l.TryLock(p0, spin.Deadline(time.Second)); !ok || r != ReleaseGlobal {
				t.Fatalf("TryLock after an uncontended cycle = (%v,%v), want (release-global,true)", r, ok)
			}
			l.Unlock(p0, false)

			// p0 hands the lock to a waiting p1; p1 releases it to p2,
			// which waits in a direct TryLock.
			b.Lock(p0)
			acquired := make(chan struct{})
			go func() {
				b.Lock(p1)
				close(acquired)
			}()
			awaitWaiter(p0)
			b.Unlock(p0)
			<-acquired
			type res struct {
				r  Release
				ok bool
			}
			got := make(chan res, 1)
			go func() {
				r, ok := l.TryLock(p2, spin.Deadline(10*time.Second))
				got <- res{r, ok}
			}()
			awaitWaiter(p1)
			b.Unlock(p1)
			if r := <-got; !r.ok || r.r != ReleaseGlobal {
				t.Fatalf("TryLock of a waiter handed the lock = (%v,%v), want (release-global,true)", r.r, r.ok)
			}
			l.Unlock(p2, false)
		})
	}
}

// A waiter that has posted its request makes the holder's Alone false,
// and the release hands the lock to it.
func TestLocalReleaseStateRoundTrips(t *testing.T) {
	topo := numa.New(1, 8)
	for name, l := range localsUnderTest(topo) {
		t.Run(name, func(t *testing.T) {
			p0, p1 := topo.Proc(0), topo.Proc(1)
			l.Lock(p0)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				l.Lock(p1)
			}()
			// Wait until the waiter registers (Alone flips false).
			for i := 0; l.Alone(p0); i++ {
				spin.Poll(i)
				if i > 1<<22 {
					t.Fatal("waiter never became visible to Alone")
				}
			}
			l.Unlock(p0)
			wg.Wait()
			l.Unlock(p1)
		})
	}
}

func TestLocalAloneWhenUncontended(t *testing.T) {
	topo := numa.New(1, 8)
	for name, l := range localsUnderTest(topo) {
		t.Run(name, func(t *testing.T) {
			p := topo.Proc(0)
			l.Lock(p)
			if !l.Alone(p) {
				t.Fatal("Alone() = false with no waiters (false negative: deadlock risk)")
			}
			l.Unlock(p)
		})
	}
}

func TestABOLocalAloneTracksAbortingWaiters(t *testing.T) {
	l := NewABOLocal()
	topo := numa.New(1, 8)
	p0, p1 := topo.Proc(0), topo.Proc(1)
	r, ok := l.TryLock(p0, spin.Deadline(time.Second))
	if !ok || r != ReleaseGlobal {
		t.Fatalf("TryLock = (%v,%v)", r, ok)
	}
	if !l.Alone(p0) {
		t.Fatal("Alone false with no waiters")
	}
	// A waiter that aborts must clear successor-exists again.
	if _, ok := l.TryLock(p1, spin.Deadline(time.Millisecond)); ok {
		t.Fatal("waiter acquired held lock")
	}
	if !l.Alone(p0) {
		t.Fatal("Alone false after the only waiter aborted")
	}
	// Releasing wantLocal with no viable successor must fall back to a
	// global release.
	if l.Unlock(p0, true) {
		t.Fatal("Unlock(p0, true) returned true with an empty cohort")
	}
	// Lock must be reacquirable in global-release state.
	r, ok = l.TryLock(p1, spin.Deadline(time.Second))
	if !ok || r != ReleaseGlobal {
		t.Fatalf("reacquire = (%v,%v), want (release-global,true)", r, ok)
	}
	l.Unlock(p1, false)
}

func TestACLHLocalAbortChainAndViableHandoff(t *testing.T) {
	topo := numa.New(1, 8)
	l := NewACLHLocal(topo)
	p0 := topo.Proc(0)
	r, ok := l.TryLock(p0, spin.Deadline(time.Second))
	if !ok || r != ReleaseGlobal {
		t.Fatalf("TryLock = (%v,%v)", r, ok)
	}
	if !l.Alone(p0) {
		t.Fatal("Alone false with empty queue")
	}
	// Two waiters abort in sequence; each marks its predecessor.
	for i := 1; i <= 2; i++ {
		if _, ok := l.TryLock(topo.Proc(i), spin.Deadline(time.Millisecond)); ok {
			t.Fatalf("waiter %d acquired held lock", i)
		}
	}
	if l.Alone(p0) {
		t.Fatal("Alone true despite enqueued (aborted) nodes — acceptable only if tail reverted, which A-CLH never does")
	}
	// wantLocal release must detect the aborted successor and release
	// globally instead of stranding a hand-off.
	if l.Unlock(p0, true) {
		t.Fatal("Unlock(p0, true) returned true with an all-aborted cohort")
	}
	// A fresh arrival walks the aborted chain and acquires globally.
	r, ok = l.TryLock(topo.Proc(3), spin.Deadline(time.Second))
	if !ok || r != ReleaseGlobal {
		t.Fatalf("post-abort acquire = (%v,%v)", r, ok)
	}
	l.Unlock(topo.Proc(3), false)
}

func TestACLHLocalLiveSuccessorGetsLocalHandoff(t *testing.T) {
	topo := numa.New(1, 8)
	l := NewACLHLocal(topo)
	p0, p1 := topo.Proc(0), topo.Proc(1)
	if _, ok := l.TryLock(p0, spin.Deadline(time.Second)); !ok {
		t.Fatal("initial acquire failed")
	}
	type res struct {
		r  Release
		ok bool
	}
	got := make(chan res, 1)
	go func() {
		r, ok := l.TryLock(p1, spin.Deadline(10*time.Second))
		got <- res{r, ok}
	}()
	for i := 0; l.Alone(p0); i++ {
		spin.Poll(i)
		if i > 1<<22 {
			t.Fatal("successor never enqueued")
		}
	}
	if !l.Unlock(p0, true) {
		t.Error("Unlock(p0, true) returned false despite a viable successor")
	}
	r := <-got
	if !r.ok || r.r != ReleaseLocal {
		t.Fatalf("successor got (%v,%v), want (release-local,true)", r.r, r.ok)
	}
	l.Unlock(p1, false)
}

// TestACLHLocalNodePoolingBounded: uncontended lock/unlock recycles
// its nodes through the proc's pool, so after AllocsPerRun's warm-up
// cycle, which makes the proc's state and its first node, 10k more
// cycles allocate nothing.
func TestACLHLocalNodePoolingBounded(t *testing.T) {
	topo := numa.New(1, 4)
	l := NewACLHLocal(topo)
	p := topo.Proc(0)
	allocs := testing.AllocsPerRun(1, func() {
		for range 10000 {
			if _, ok := l.TryLock(p, spin.Deadline(time.Second)); !ok {
				t.Fatal("uncontended acquire failed")
			}
			l.Unlock(p, false)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations over 10k uncontended cycles, want 0", allocs)
	}
}

func TestACLHLocalRescueWinsOrAborts(t *testing.T) {
	// Hammer the hand-off/abort race: one holder repeatedly tries to
	// hand off locally while a waiter with tiny patience aborts. A
	// local hand-off reaches only a viable waiter, and every outcome
	// must keep the lock usable.
	topo := numa.New(1, 8)
	l := NewACLHLocal(topo)
	p0, p1, p2 := topo.Proc(0), topo.Proc(1), topo.Proc(2)
	for round := 0; round < 200; round++ {
		if _, ok := l.TryLock(p0, spin.Deadline(time.Second)); !ok {
			t.Fatal("holder failed to acquire")
		}
		done := make(chan bool, 1)
		go func() {
			_, ok := l.TryLock(p1, spin.Deadline(time.Duration(round%3)*time.Microsecond))
			done <- ok
		}()
		handedOff := l.Unlock(p0, true)
		if <-done {
			// Waiter (late-)acquired: it owns the lock in some state;
			// release it globally to reset for the next round.
			l.Unlock(p1, false)
		} else if handedOff {
			t.Fatalf("round %d: Unlock(p0, true) returned true, but the waiter aborted", round)
		}
		if _, ok := l.TryLock(p2, spin.Deadline(100*time.Millisecond)); !ok {
			t.Fatal("lock stranded: no thread can acquire")
		}
		l.Unlock(p2, false)
	}
}

func TestPatienceHelper(t *testing.T) {
	d := spin.Deadline(time.Hour)
	if spin.Expired(d) {
		t.Fatal("hour-long patience already expired")
	}
	if !spin.Expired(spin.Deadline(-time.Second)) {
		t.Fatal("negative patience should be expired")
	}
}
