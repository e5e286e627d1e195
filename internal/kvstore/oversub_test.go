package kvstore

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

// writersTime runs four writers, each doing 500 32-byte Sets, beside
// eight readers looping Gets over 64 keys, on a one-cluster store whose
// reader-writer lock takes writers through name's lock: twelve
// goroutines on however few CPUs. It returns how long the writers took
// and whether they finished before stop; each writer checks stop
// before every Set.
func writersTime(name string, stop time.Time) (time.Duration, bool) {
	topo := numa.New(1, 12)
	e := registry.MustLookup(name)
	s := New(Config{
		Topo:     topo,
		Locking:  FromRW(func() locks.RWMutex { return locks.NewRWPerCluster(topo, e.NewMutex(topo)) }),
		Buckets:  1 << 10,
		Capacity: 1 << 12,
	})
	const keys = 64
	val := make([]byte, 32)
	for k := uint64(0); k < keys; k++ {
		s.Set(topo.Proc(0), k, val)
	}
	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(p *numa.Proc) {
			defer readers.Done()
			dst := make([]byte, 32)
			for {
				select {
				case <-done:
					return
				default:
				}
				s.Get(p, uint64(p.RandN(keys)), dst)
			}
		}(topo.Proc(r))
	}
	var late atomic.Bool
	start := time.Now()
	for w := 8; w < 12; w++ {
		writers.Add(1)
		go func(p *numa.Proc) {
			defer writers.Done()
			v := make([]byte, 32)
			for i := 0; i < 500; i++ {
				if time.Now().After(stop) {
					late.Store(true)
					return
				}
				v[0] = byte(i)
				s.Set(p, uint64(p.RandN(keys)), v)
			}
		}(topo.Proc(w))
	}
	writers.Wait()
	elapsed := time.Since(start)
	close(done)
	readers.Wait()
	return elapsed, !late.Load()
}

// TestOversubscribedWritersFinish: with more goroutines than CPUs, a
// FIFO lock hands off to a waiter that may be descheduled. A waiter
// that parks on the record its releaser writes is made runnable by the
// release; one that only polls is a runnable goroutine queued behind
// busy ones, so each hand-off can cost a scheduler time slice and the
// writers' 2000 Sets take about a thousand times pthread's time. Every
// name's writers must finish within a fixed multiple of pthread's
// writer time in the same run. The bound is relative, so a slow runner
// or the race detector slows both sides alike; each writer gives up at
// the bound, so a collapsing lock costs about the bound, not a minute.
// The gcr- rows put admission in front of a parking queue lock, so a
// proc's one parker serves two waits per acquisition; they took
// seconds while GCR promoted a waiter after releasing the inner lock.
func TestOversubscribedWritersFinish(t *testing.T) {
	// A multiple of pthread's writer time. On a 2-CPU host the parking
	// queue locks read 1-5× pthread, and up to 30× under -race, whose
	// instrumented channel operations slow every park and wake.
	const bound = 100
	// pthread's time is the slower of two runs, so one lucky run does not
	// set the bar.
	var base time.Duration
	for range 2 {
		d, _ := writersTime("pthread", time.Now().Add(time.Minute))
		base = max(base, d)
	}
	// A floor keeps a very fast pthread run from turning scheduler noise
	// into a failure.
	limit := max(bound*base, 500*time.Millisecond)
	for _, name := range []string{"c-bo-clh", "c-tkt-clh", "c-bo-mcs", "c-tkt-tkt", "mcs", "cna", "gcr-mcs", "gcr-c-bo-mcs", "pthread"} {
		got, ok := writersTime(name, time.Now().Add(limit))
		t.Logf("%-9s writers %v (pthread %v)", name, got, base)
		if !ok {
			t.Errorf("%s: writers unfinished after %v, %d× pthread's %v", name, limit, bound, base)
		}
	}
}
