package registry

import (
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
)

// TestEveryBlockingEntryPassesLocktest round-trips every registered
// blocking lock through the mutual-exclusion harness at 2 clusters × 8
// procs. Registering a lock is enough to get it exercised here (and
// under -race in CI), so a future entry whose factory builds a broken
// instance fails the suite without any new test code.
func TestEveryBlockingEntryPassesLocktest(t *testing.T) {
	for _, e := range entries() {
		if e.NewMutex == nil {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			topo := numa.New(2, 8)
			locktest.Check(t, topo, locks.ExecFromMutex(e.NewMutex(topo)), 0, 8, 150)
		})
	}
}

// TestEveryAbortableEntryPassesLocktest is the same automatic gate for
// the abortable factories.
func TestEveryAbortableEntryPassesLocktest(t *testing.T) {
	for _, e := range entries() {
		if e.NewTry == nil {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			topo := numa.New(2, 8)
			locktest.CheckTryMutex(t, topo, e.NewTry(topo), 8, 150, 200*time.Microsecond)
		})
	}
}

// TestEveryRWEntryPassesLocktest round-trips every registered
// reader-writer factory through locktest.Check: writer exclusion,
// torn-snapshot detection, and genuine cross-cluster reader
// concurrency, automatically for any future rw-* registration.
func TestEveryRWEntryPassesLocktest(t *testing.T) {
	for _, e := range entries() {
		if e.NewRW == nil {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			topo := numa.New(2, 8)
			x := locks.ExecFromRWMutex(e.NewRW(topo))
			locktest.Coexist(t, topo, x, 5)
			locktest.Check(t, topo, x, 5, 3, 150)
		})
	}
}

// TestRWFactoryAdaptsExclusiveEntries verifies the degradation path:
// an exclusive-only entry still yields a correct executor through
// ExecFactory, its shared closures serialized with the rest.
func TestRWFactoryAdaptsExclusiveEntries(t *testing.T) {
	for _, name := range []string{"mcs", "c-bo-mcs", "pthread"} {
		e := MustLookup(name)
		t.Run(name, func(t *testing.T) {
			topo := numa.New(2, 8)
			locktest.Check(t, topo, e.ExecFactory(topo)(), 5, 3, 150)
		})
	}
}

// TestEveryExecEntryPassesLocktest round-trips every derived comb-a-*
// factory through locktest.Check: closure mutual exclusion, no
// lost or double-run ops, deadline-guarded — automatically for any
// future blocking registration (each gains a comb-a-* twin).
func TestEveryExecEntryPassesLocktest(t *testing.T) {
	for _, e := range entries() {
		if e.NewExec == nil {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			topo := numa.New(2, 8)
			locktest.Check(t, topo, e.NewExec(topo), 0, 8, 150)
		})
	}
}

// TestExecFactoryAdaptsMutexEntries verifies the degradation path: a
// plain blocking entry still yields a correct Executor through
// ExecFactory (one acquisition per closure).
func TestExecFactoryAdaptsMutexEntries(t *testing.T) {
	for _, name := range []string{"mcs", "c-bo-mcs", "pthread"} {
		e := MustLookup(name)
		t.Run(name, func(t *testing.T) {
			topo := numa.New(2, 8)
			locktest.Check(t, topo, e.ExecFactory(topo)(), 0, 8, 150)
		})
	}
}

// mustShare reports whether e's executor must share reads: e has a
// native reader-writer construction, or is a combining executor over
// an operand that has one.
func mustShare(e Entry) bool {
	_, operand, ok := e.Unwrap()
	return e.NewRW != nil || e.NewExec != nil && ok && operand.NewRW != nil
}

// TestEveryRWExecFactoryPassesLocktest round-trips every lockable
// entry's executor (ExecFactory: the combining construction for
// comb-a-* entries, ExecFromRWMutex over rw-* ones, ExecFromMutex
// otherwise) through locktest.Check: concurrent shared batches
// coexist where sharing is genuine, exclusive closures exclude them,
// no lost or double-run ops — automatically for any future
// registration.
func TestEveryRWExecFactoryPassesLocktest(t *testing.T) {
	for _, e := range entries() {
		topo := numa.New(2, 8)
		f := e.ExecFactory(topo)
		if f == nil {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			x := f()
			if mustShare(e) {
				locktest.Coexist(t, topo, x, 5)
			}
			locktest.Check(t, topo, x, 5, 3, 150)
		})
	}
}

// TestNewLocksSatisfyFairnessHarness runs the extension locks through
// the starvation check: every proc must complete its quota despite
// CNA's deferral and GCR's admission throttling.
func TestNewLocksSatisfyFairnessHarness(t *testing.T) {
	for _, name := range []string{"cna", "gcr-mcs", "gcr-cna", "gcr-c-bo-mcs"} {
		e := MustLookup(name)
		t.Run(name, func(t *testing.T) {
			topo := numa.New(2, 8)
			locktest.CheckFairness(t, topo, e.NewMutex(topo), 8, 200)
		})
	}
}
