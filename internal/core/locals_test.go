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
			l.Unlock(p0, false, noRelease)

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
			l.Unlock(p2, false, noRelease)
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
	released := false
	l.Unlock(p0, true, func() { released = true })
	if !released {
		t.Fatal("release-local to an empty cohort did not release the global lock")
	}
	// Lock must be reacquirable in global-release state.
	r, ok = l.TryLock(p1, spin.Deadline(time.Second))
	if !ok || r != ReleaseGlobal {
		t.Fatalf("reacquire = (%v,%v), want (release-global,true)", r, ok)
	}
	l.Unlock(p1, false, func() {})
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
	released := false
	l.Unlock(p0, true, func() { released = true })
	if !released {
		t.Fatal("release to an all-aborted cohort did not release the global lock")
	}
	// A fresh arrival walks the aborted chain and acquires globally.
	r, ok = l.TryLock(topo.Proc(3), spin.Deadline(time.Second))
	if !ok || r != ReleaseGlobal {
		t.Fatalf("post-abort acquire = (%v,%v)", r, ok)
	}
	l.Unlock(topo.Proc(3), false, func() {})
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
	l.Unlock(p0, true, func() { t.Error("global released despite viable successor") })
	r := <-got
	if !r.ok || r.r != ReleaseLocal {
		t.Fatalf("successor got (%v,%v), want (release-local,true)", r.r, r.ok)
	}
	l.Unlock(p1, false, func() {})
}

func TestACLHLocalNodePoolingBounded(t *testing.T) {
	topo := numa.New(1, 4)
	l := NewACLHLocal(topo)
	p := topo.Proc(0)
	for i := 0; i < 10000; i++ {
		if _, ok := l.TryLock(p, spin.Deadline(time.Second)); !ok {
			t.Fatal("uncontended acquire failed")
		}
		l.Unlock(p, false, func() {})
	}
	// Uncontended lock/unlock recycles through the pool: allocation
	// must stay tiny rather than growing with iterations.
	if n := l.arena.next.Load(); n > 16 {
		t.Fatalf("allocated %d arena nodes over 10k uncontended cycles, want a handful", n)
	}
}

func TestACLHLocalRescueWinsOrAborts(t *testing.T) {
	// Hammer the hand-off/abort race: one holder repeatedly tries to
	// hand off locally while a waiter with tiny patience aborts. Every
	// outcome must keep the lock usable.
	topo := numa.New(1, 8)
	l := NewACLHLocal(topo)
	p0, p1 := topo.Proc(0), topo.Proc(1)
	globalHeld := true // emulate cluster owning the global lock
	for round := 0; round < 200; round++ {
		if !globalHeld {
			// reacquire: cohort framework would do this
			globalHeld = true
		}
		if _, ok := l.TryLock(p0, spin.Deadline(time.Second)); !ok {
			t.Fatal("holder failed to acquire")
		}
		done := make(chan bool, 1)
		go func() {
			_, ok := l.TryLock(p1, spin.Deadline(time.Duration(round%3)*time.Microsecond))
			done <- ok
		}()
		l.Unlock(p0, true, func() { globalHeld = false })
		if <-done {
			// Waiter (late-)acquired: it owns the lock in some state;
			// release it globally to reset for the next round.
			l.Unlock(p1, false, func() { globalHeld = false })
		}
		if !globalHeld {
			continue
		}
		// Hand-off succeeded but acquirer may have been the aborting
		// waiter (success path) — handled above. If the waiter aborted
		// after the hand-off CAS lost, the lock word holds RL with no
		// claimant only if the rescue also failed, which cannot
		// happen; drain defensively with a fresh proc.
		r, ok := l.TryLock(topo.Proc(2), spin.Deadline(100*time.Millisecond))
		if !ok {
			t.Fatal("lock stranded: no thread can acquire")
		}
		if r == ReleaseLocal {
			l.Unlock(topo.Proc(2), false, func() { globalHeld = false })
		} else {
			l.Unlock(topo.Proc(2), false, func() {})
		}
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

func TestACLHLocalArenaConcurrentGrowth(t *testing.T) {
	// Eight allocators race across eight chunk installs: 512 nodes
	// span chunks 0-7. Every index must resolve to its own node, and a
	// node handed out during the race must stay where it was: a lost
	// install race must not replace a chunk already in use.
	const workers, perWorker = 8, 64
	var a acArena
	idx := make([][]int64, workers)
	got := make([][]*acNode, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range perWorker {
				i := a.alloc()
				idx[w] = append(idx[w], i)
				got[w] = append(got[w], a.node(i))
			}
		}()
	}
	close(start)
	wg.Wait()
	seen := map[*acNode]int64{}
	for w := range workers {
		for k, i := range idx[w] {
			n := got[w][k]
			if a.node(i) != n {
				t.Fatalf("node(%d) moved after the race", i)
			}
			if j, dup := seen[n]; dup {
				t.Fatalf("indices %d and %d resolve to one node", j, i)
			}
			seen[n] = i
		}
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("%d distinct nodes, want %d", len(seen), workers*perWorker)
	}
}

// TestACLHArenaGrowsFromEmpty: the arena holds no chunk until a node
// is handed out, each chunk is made when its first index is, chunk k
// holds acBase<<k nodes, and every index names its own node, the same
// one on every lookup.
func TestACLHArenaGrowsFromEmpty(t *testing.T) {
	var a acArena
	for k := range a.chunks {
		if a.chunks[k].Load() != nil {
			t.Fatalf("a fresh arena holds chunk %d", k)
		}
	}
	const n = 1000
	seen := map[*acNode]int64{}
	for i := int64(0); i < n; i++ {
		if got := a.alloc(); got != i {
			t.Fatalf("alloc %d returned index %d", i, got)
		}
		k, off := acChunkOf(i)
		if c := a.chunks[k].Load(); c == nil || len(*c) != acBase<<k || off < 0 || off >= int64(len(*c)) {
			t.Fatalf("index %d: chunk %d offset %d outside a chunk of %d nodes", i, k, off, acBase<<k)
		}
		if k+1 < acMaxChunks && a.chunks[k+1].Load() != nil {
			t.Fatalf("index %d: chunk %d made before its first index", i, k+1)
		}
		nd := a.node(i)
		if j, dup := seen[nd]; dup {
			t.Fatalf("indexes %d and %d share a node", j, i)
		}
		seen[nd] = i
	}
	for nd, i := range seen {
		if a.node(i) != nd {
			t.Fatalf("index %d names a different node on a second lookup", i)
		}
	}
}
