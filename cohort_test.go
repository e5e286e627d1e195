package cohort_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cohort "repro"
)

func TestQuickstartShape(t *testing.T) {
	// The package-documentation example, verified.
	topo := cohort.NewTopology(4, 16)
	lock := cohort.NewCBOMCS(topo)
	var counter int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(p *cohort.Proc) {
			defer wg.Done()
			for k := 0; k < 500; k++ {
				lock.Lock(p)
				counter++
				lock.Unlock(p)
			}
		}(topo.Proc(i))
	}
	wg.Wait()
	if counter != 16*500 {
		t.Fatalf("counter = %d, want %d", counter, 16*500)
	}
}

func TestAllConstructorsUsable(t *testing.T) {
	// The paper's seven cohort locks, each built by its name.
	topo := cohort.NewTopology(2, 8)
	p := topo.Proc(0)
	for _, name := range []string{"c-bo-bo", "c-tkt-tkt", "c-bo-mcs", "c-tkt-mcs", "c-mcs-mcs", "a-c-bo-bo", "a-c-bo-clh"} {
		e, err := cohort.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.NewMutex != nil {
			l := e.NewMutex(topo)
			l.Lock(p)
			l.Unlock(p)
			continue
		}
		l := e.NewTry(topo)
		if !l.TryLockFor(p, time.Second) {
			t.Fatalf("%s: TryLockFor failed on free lock", name)
		}
		l.Unlock(p)
	}
}

func TestAdaptiveCombiningAndRWExecutorFacade(t *testing.T) {
	// The public faces of the adaptive hot path: the load-adaptive
	// combining executor, and the shared-mode executor a reader-writer
	// lock name builds.
	topo := cohort.NewTopology(2, 8)
	p := topo.Proc(0)

	x := cohort.NewCombiningAdaptive(topo, cohort.NewCBOMCS(topo))
	n := 0
	for i := 0; i < 10; i++ {
		x.Exec(p, func() { n++ })
	}
	if n != 10 {
		t.Fatalf("adaptive executor ran %d closures, want 10", n)
	}

	e, err := cohort.Find("rw-c-bo-mcs")
	if err != nil {
		t.Fatal(err)
	}
	rx := e.ExecFactory(topo)()
	m := 0
	rx.ExecShared(p, func() { m++ })
	rx.Exec(p, func() { m++ })
	if m != 2 {
		t.Fatalf("rw executor ran %d closures, want 2", m)
	}
}

func TestRWCombiningFacade(t *testing.T) {
	// The combining reader-writer faces: closures run exactly once in
	// both modes.
	topo := cohort.NewTopology(2, 8)
	p := topo.Proc(0)

	e, err := cohort.Find("comb-a-rw-c-bo-mcs")
	if err != nil {
		t.Fatal(err)
	}
	x, ok := e.NewExec(topo).(*cohort.RWCombiningLock)
	if !ok {
		t.Fatalf("comb-a-rw-c-bo-mcs builds %T, want *cohort.RWCombiningLock", e.NewExec(topo))
	}
	n := 0
	for i := 0; i < 10; i++ {
		x.ExecShared(p, func() { n++ })
	}
	x.Exec(p, func() { n++ })
	if n != 11 {
		t.Fatalf("rw combining executor ran %d closures, want 11", n)
	}
}

func TestWithHandoffLimitVisible(t *testing.T) {
	topo := cohort.NewTopology(2, 4)
	e, err := cohort.Find("c-tkt-tkt", cohort.WithHandoffLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	if l := e.NewMutex(topo).(*cohort.CohortLock); l.HandoffLimit() != 5 {
		t.Fatalf("HandoffLimit = %d, want 5", l.HandoffLimit())
	}
	if d := cohort.NewCBOMCS(topo).(*cohort.CohortLock); d.HandoffLimit() != cohort.DefaultHandoffLimit {
		t.Fatalf("default HandoffLimit = %d", d.HandoffLimit())
	}
}

// userSpinLock is a deliberately simple user-provided lock used to
// exercise the generic transformation through the public API: a plain
// spin lock plus a successor-exists flag that answers Alone.
type userSpinLock struct {
	held atomic.Int32
	// succ implements cohort detection the same way core.ABOLocal does.
	succ atomic.Int32
}

func (u *userSpinLock) Lock(_ *cohort.Proc) {
	for {
		if u.held.Load() == 0 {
			u.succ.Store(1)
			if u.held.CompareAndSwap(0, 1) {
				u.succ.Store(0)
				return
			}
		} else if u.succ.Load() == 0 {
			u.succ.Store(1)
		}
	}
}

func (u *userSpinLock) Unlock(_ *cohort.Proc) { u.held.Store(0) }

func (u *userSpinLock) Alone(_ *cohort.Proc) bool { return u.succ.Load() == 0 }

func TestGenericTransformationWithUserLock(t *testing.T) {
	topo := cohort.NewTopology(2, 8)
	lock := cohort.New(topo, &tasGlobal{}, func(int) cohort.LocalLock {
		return &userSpinLock{}
	})
	var counter int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(p *cohort.Proc) {
			defer wg.Done()
			for k := 0; k < 300; k++ {
				lock.Lock(p)
				counter++
				lock.Unlock(p)
			}
		}(topo.Proc(i))
	}
	wg.Wait()
	if counter != 8*300 {
		t.Fatalf("counter = %d, want %d", counter, 8*300)
	}
}

func TestAbortableUnderContention(t *testing.T) {
	topo := cohort.NewTopology(4, 16)
	e, err := cohort.Find("a-c-bo-clh")
	if err != nil {
		t.Fatal(err)
	}
	lock := e.NewTry(topo)
	var acquired, aborted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(p *cohort.Proc) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				if lock.TryLockFor(p, 50*time.Microsecond) {
					acquired.Add(1)
					lock.Unlock(p)
				} else {
					aborted.Add(1)
				}
			}
		}(topo.Proc(i))
	}
	wg.Wait()
	if acquired.Load() == 0 {
		t.Fatal("nothing acquired")
	}
	if acquired.Load()+aborted.Load() != 16*200 {
		t.Fatal("attempts unaccounted")
	}
}
