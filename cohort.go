// Package cohort is a Go implementation of lock cohorting, the general
// technique for building NUMA-aware locks of Dice, Marathe and Shavit
// (PPoPP 2012), together with the seven cohort locks the paper
// presents: C-BO-BO, C-TKT-TKT, C-BO-MCS, C-TKT-MCS, C-MCS-MCS and the
// abortable A-C-BO-BO and A-C-BO-CLH. Find builds any of them, and
// every other lock here, from its name: "c-bo-mcs" is the cohort
// transformation over a global BO lock and per-cluster MCS locks.
//
// Beyond the paper it carries four extensions from the same design
// lineage: the compact NUMA-aware lock (NewCNA), which gets cohort-
// style locality out of a single queue; generic concurrency
// restriction (gcr-<lock>), which wraps any lock with per-cluster
// admission control so saturation cannot collapse throughput;
// reader-writer cohorting (rw-<lock>, e.g. rw-c-bo-mcs) — the
// authors' PPoPP'13 follow-up — which adds per-cluster reader counters
// over any writer lock so read-mostly workloads scale across clusters;
// and combining execution (NewCombiningAdaptive), flat-combining-style
// delegated critical sections that run same-cluster batches under a
// single acquisition of any underlying lock, with election patience
// and harvest depth following a per-cluster occupancy estimate — the
// load signal concurrency restriction uses. NewRWCombiningAdaptive
// adds the shared mode: writes are combined, and each read takes the
// reader-writer lock's own shared mode.
//
// # Model
//
// A cohort lock composes a global lock with one cohort-detecting local
// lock per NUMA cluster. Threads acquire their cluster's local lock
// and, only when their cluster does not already own it, the global
// lock; a releaser that detects waiting same-cluster
// threads passes ownership within the cluster without touching the
// global lock. Long runs of same-cluster critical sections keep both
// lock metadata and the data the critical section touches in the
// cluster's cache, which is where the scalability comes from.
//
// Because Go's runtime hides OS threads, cluster identity is explicit:
// a Topology declares the cluster layout, and each worker goroutine
// holds a *Proc handle that fixes its cluster and supplies the
// per-thread state queue locks need. All lock operations take the
// Proc. One goroutine per Proc at a time; Procs are reusable after a
// goroutine finishes.
//
// # Quick start
//
//	topo := cohort.NewTopology(4, 16) // 4 clusters, up to 16 workers
//	e, err := cohort.Find("c-bo-mcs", cohort.WithHandoffLimit(32))
//	if err != nil {
//	    log.Fatal(err) // names the failing component, suggests near names
//	}
//	lock := e.NewMutex(topo)
//	for i := 0; i < 16; i++ {
//	    go func(p *cohort.Proc) {
//	        lock.Lock(p)
//	        // critical section
//	        lock.Unlock(p)
//	    }(topo.Proc(i))
//	}
//
// # Building custom cohort locks
//
// The transformation is generic: any lock (GlobalLock) can be combined
// with per-cluster locks that can also answer alone? (LocalLock) via
// New, which releases the global lock on behalf of the Proc that
// acquired it; abortable variants compose via
// NewAbortable. ExampleNew_userLocks builds one from two user-written
// locks.
package cohort

import (
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

// Topology describes the simulated NUMA machine: a number of symmetric
// clusters and a bound on concurrent workers.
type Topology = numa.Topology

// Proc is one logical processor handle; every lock operation requires
// the calling goroutine's Proc.
type Proc = numa.Proc

// NewTopology returns a topology with the given cluster count and
// maximum worker count, assigning procs to clusters round-robin.
func NewTopology(clusters, maxProcs int) *Topology {
	return numa.New(clusters, maxProcs)
}

// Lock is a mutual-exclusion lock operating on Proc handles.
type Lock interface {
	Lock(p *Proc)
	Unlock(p *Proc)
}

// TryLock is an abortable lock: TryLockFor gives up (returning false)
// once patience expires.
type TryLock interface {
	TryLockFor(p *Proc, patience time.Duration) bool
	Unlock(p *Proc)
}

// Release is the hand-off state an abortable cohort local lock is
// released in (AbortableLocalLock); the blocking transformation keeps
// that state itself, so LocalLock does not carry it.
type Release = core.Release

// Hand-off states.
const (
	// ReleaseGlobal: the global lock was released; the next local
	// owner must acquire it.
	ReleaseGlobal = core.ReleaseGlobal
	// ReleaseLocal: the next local owner inherits the global lock.
	ReleaseLocal = core.ReleaseLocal
)

// GlobalLock is the contract for the global component of a cohort
// lock: any Lock. The cohort may release it from a different thread
// than the one that acquired it, but always passes the acquirer's
// Proc to Unlock.
type GlobalLock = core.Global

// LocalLock is the contract for the per-cluster component: any Lock
// plus Alone, the paper's cohort-detection predicate alone? (false
// positives allowed, false negatives forbidden). Whether the cluster
// owns the global lock is the cohort's own record, not the local
// lock's.
type LocalLock = core.Local

// AbortableGlobalLock and AbortableLocalLock are the strengthened
// contracts for abortable cohort locks (paper §3.6); see
// internal/core documentation for the exact viable-successor rules.
type (
	AbortableGlobalLock = core.AbortableGlobal
	AbortableLocalLock  = core.AbortableLocal
)

// CohortLock is the generic cohort lock; it satisfies Lock.
type CohortLock = core.CohortLock

// AbortableCohortLock is the generic abortable cohort lock; it
// satisfies TryLock.
type AbortableCohortLock = core.AbortableCohortLock

// Option configures a cohort lock.
type Option = core.Option

// DefaultHandoffLimit is the paper's bound (64) on consecutive local
// hand-offs before the global lock must be released for fairness.
const DefaultHandoffLimit = core.DefaultHandoffLimit

// WithHandoffLimit overrides the hand-off bound: n > 0 sets the bound,
// n < 0 removes it (maximum throughput, unbounded unfairness).
func WithHandoffLimit(n int64) Option { return core.WithHandoffLimit(n) }

// New assembles a cohort lock from a global lock and a per-cluster
// local lock factory — the paper's transformation,
// directly. newLocal is called once per cluster.
func New(topo *Topology, global GlobalLock, newLocal func(cluster int) LocalLock, opts ...Option) *CohortLock {
	return core.NewCohortLock(topo, global, newLocal, opts...)
}

// NewAbortable assembles an abortable cohort lock; see New.
func NewAbortable(topo *Topology, global AbortableGlobalLock, newLocal func(cluster int) AbortableLocalLock, opts ...Option) *AbortableCohortLock {
	return core.NewAbortableCohortLock(topo, global, newLocal, opts...)
}

// Entry is what a lock name builds: NewMutex for a blocking lock,
// NewTry for an abortable one, NewRW for a native reader-writer lock
// and NewExec for a combining executor (nil where the lock has no
// such face).
type Entry = registry.Entry

// Find builds the lock a name spells (README "Lock names"):
//
//	name    := wrapper* lock
//	wrapper := comb-a- | gcr- | rw-
//	lock    := base | c-<global>-<local> | a-c-<aglobal>-<alocal>
//
// opts (WithHandoffLimit) configure every cohort lock in the name; a
// name without one rejects them. Names are case-insensitive, and the
// error for a bad one names the failing component.
func Find(name string, opts ...Option) (Entry, error) { return registry.Find(name, opts...) }

// NewCTKTTKT is Find("c-tkt-tkt").NewMutex. It goes when
// bench/seams.go switches to Find (ROADMAP 1(b)).
func NewCTKTTKT(topo *Topology) Lock { return registry.MustLookup("c-tkt-tkt").NewMutex(topo) }

// NewCBOMCS is Find("c-bo-mcs").NewMutex. It goes when
// bench/seams.go switches to Find (ROADMAP 1(b)).
func NewCBOMCS(topo *Topology) Lock { return registry.MustLookup("c-bo-mcs").NewMutex(topo) }

// RWLock is a reader-writer lock operating on Proc handles: Lock and
// Unlock take exclusive mode, RLock and RUnlock take shared mode (any
// number of concurrent readers).
type RWLock = locks.RWMutex

// NewRWCBOMCS is Find("rw-c-bo-mcs").NewRW: per-cluster reader
// counters over C-BO-MCS writers. It goes when bench/seams.go
// switches to Find (ROADMAP 1(b)).
func NewRWCBOMCS(topo *Topology) RWLock { return registry.MustLookup("rw-c-bo-mcs").NewRW(topo) }

// CNALock is the compact NUMA-aware queue lock of Dice and Kogan
// (EuroSys 2019): cohort-style locality from a single MCS-shaped queue
// with constant memory. See NewCNA.
type CNALock = locks.CNA

// NewCNA returns a compact NUMA-aware lock for the topology: one
// queue, with remote-cluster waiters deferred onto a secondary list up
// to a bounded same-cluster streak (the cohort locks' fairness knob).
func NewCNA(topo *Topology) *CNALock { return locks.NewCNA(topo) }

// Executor is delegated mutual exclusion: Exec runs the closure
// inside the executor's exclusion domain — at most one closure at a
// time, each exactly once — and returns when it has run. See
// NewCombiningAdaptive for why a lock would execute your critical section
// instead of letting you hold it.
type Executor = locks.Executor

// CombiningLock turns any Lock into a combining lock: procs post
// closures to per-proc publication slots, and an elected per-cluster
// combiner runs whole same-cluster batches under a single acquisition
// of the underlying lock — flat-combining-style delegated execution,
// the technique FC-MCS derives from, over any lock in the family.
type CombiningLock = locks.Combining

// NewCombiningAdaptive builds a combining executor over a fresh
// underlying lock (the executor owns it; do not Lock/Unlock it
// directly). Election patience and harvest pass count follow the
// per-cluster occupancy estimate instead of fixed constants: idle
// collapses to an eager one-pass bypass, contention grows both for
// longer locality-preserving batches.
func NewCombiningAdaptive(topo *Topology, underlying Lock) *CombiningLock {
	return locks.NewCombiningAdaptive(topo, underlying)
}

// RWExecutor is delegated execution with a shared mode: ExecShared
// closures may run concurrently with one another but never with an
// Exec closure — the seam a read-mostly structure uses to hand whole
// batches of read-only critical sections to the lock in one shared
// acquisition.
type RWExecutor = locks.RWExecutor

// RWCombiningLock is the combining reader-writer executor: exclusive
// closures run through a CombiningLock over the underlying lock, and
// each shared closure runs under one shared acquisition of it, so
// concurrent readers coexist in the lock's shared mode as they do
// under the lock itself.
type RWCombiningLock = locks.RWCombining

// NewRWCombiningAdaptive builds a combining reader-writer executor
// over a fresh reader-writer lock (the executor owns it; do not lock
// it directly), occupancy-adaptive on its exclusive side like
// NewCombiningAdaptive.
func NewRWCombiningAdaptive(topo *Topology, underlying RWLock) *RWCombiningLock {
	return locks.NewRWCombiningAdaptive(topo, underlying)
}

// Interface conformance checks.
var (
	_ Lock       = (*CohortLock)(nil)
	_ TryLock    = (*AbortableCohortLock)(nil)
	_ Lock       = (*CNALock)(nil)
	_ Executor   = (*CombiningLock)(nil)
	_ RWExecutor = (*RWCombiningLock)(nil)
)
