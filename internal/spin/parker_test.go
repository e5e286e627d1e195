package spin

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParkerImmediateCondition(t *testing.T) {
	pk := MakeParker()
	done := atomic.Bool{}
	done.Store(true)
	finished := make(chan struct{})
	go func() {
		pk.Wait(done.Load)
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return for an already-true condition")
	}
}

func TestParkerWakesParkedWaiter(t *testing.T) {
	prev := oversubscribed.Load()
	defer oversubscribed.Store(prev)
	oversubscribed.Store(true) // force the park path

	pk := MakeParker()
	var flag atomic.Int32
	finished := make(chan struct{})
	go func() {
		pk.Wait(func() bool { return flag.Load() == 1 })
		close(finished)
	}()
	// Give the waiter time to burn its hot window and park.
	time.Sleep(20 * time.Millisecond)
	flag.Store(1)
	pk.Wake()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("parked waiter never woke")
	}
}

func TestParkerStaleTokenHarmless(t *testing.T) {
	prev := oversubscribed.Load()
	defer oversubscribed.Store(prev)
	oversubscribed.Store(true)

	pk := MakeParker()
	pk.Wake() // stale token from a hand-off observed by spinning
	pk.Wake() // second wake drops harmlessly (buffer of one)

	var flag atomic.Int32
	finished := make(chan struct{})
	go func() {
		pk.Wait(func() bool { return flag.Load() == 1 })
		close(finished)
	}()
	time.Sleep(20 * time.Millisecond)
	flag.Store(1)
	pk.Wake()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter lost a wake due to a stale token")
	}
}

func TestParkerHandoffChain(t *testing.T) {
	// A ring of waiters passing a baton through parkers: stresses the
	// check-then-park race from both sides.
	prev := oversubscribed.Load()
	defer oversubscribed.Store(prev)
	oversubscribed.Store(true)

	const workers = 8
	const rounds = 200
	parkers := make([]Parker, workers)
	turns := make([]atomic.Int64, workers)
	for i := range parkers {
		parkers[i] = MakeParker()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				want := int64(r)
				parkers[id].Wait(func() bool { return turns[id].Load() == want+1 })
				next := (id + 1) % workers
				turns[next].Add(1)
				parkers[next].Wake()
			}
		}(w)
	}
	// Start the baton.
	turns[0].Add(1)
	parkers[0].Wake()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("baton ring deadlocked: lost wakeup in Parker protocol")
	}
}
