package core

import (
	"time"

	"repro/internal/numa"
	"repro/internal/spin"
)

// CohortLock is the generic (non-abortable) lock cohorting
// transformation: one global lock plus one cohort-detecting local lock
// per cluster. It implements the paper's lock/unlock protocol of §2.1
// and satisfies locks.Mutex. Whether a cluster owns the global lock is
// the cohort's own per-cluster record, not a state of the local lock,
// so both slots take unmodified locks.
type CohortLock struct {
	global Global
	local  []Local
	state  []clusterState
	limit  int64
}

// NewCohortLock assembles a cohort lock over topo. newLocal is invoked
// once per cluster to build that cluster's local lock; global is the
// shared lock. This is the one composition point: any pair of locks
// with the required properties may be combined, and the registry
// builds the paper's seven (c-<global>-<local>) through it.
func NewCohortLock(topo *numa.Topology, global Global, newLocal func(cluster int) Local, opts ...Option) *CohortLock {
	o := buildOptions(opts)
	l := &CohortLock{
		global: global,
		local:  make([]Local, topo.Clusters()),
		state:  make([]clusterState, topo.Clusters()),
		limit:  o.HandoffLimit,
	}
	for c := range l.local {
		l.local[c] = newLocal(c)
	}
	return l
}

// Lock acquires the cohort lock: local lock first, then — only if the
// cluster does not already own it — the global lock.
func (l *CohortLock) Lock(p *numa.Proc) {
	c := p.Cluster()
	l.local[c].Lock(p)
	if st := &l.state[c]; st.holder == nil {
		l.global.Lock(p)
		st.holder = p
		st.passes = 0
	}
}

// Unlock releases the cohort lock. If a cohort thread is waiting and
// the hand-off budget permits, only the local lock is released,
// keeping the global lock cluster-resident; otherwise the global lock
// is released, on behalf of the proc that acquired it, before the
// local lock. That proc cannot call global.Lock again until it holds
// its local lock with holder == nil, which happens only after this
// global.Unlock has returned.
func (l *CohortLock) Unlock(p *numa.Proc) {
	c := p.Cluster()
	st := &l.state[c]
	s := l.local[c]
	if (l.limit < 0 || st.passes < l.limit) && !s.Alone(p) {
		st.passes++
		s.Unlock(p)
		return
	}
	g := st.holder
	st.holder = nil
	l.global.Unlock(g)
	s.Unlock(p)
}

// HandoffLimit reports the configured may-pass-local bound.
func (l *CohortLock) HandoffLimit() int64 { return l.limit }

// AbortableCohortLock is the abortable lock cohorting transformation
// (paper §3.6): global and local components support bounded patience,
// and local release only hands the global lock to viable successors.
// It satisfies locks.TryMutex.
type AbortableCohortLock struct {
	global AbortableGlobal
	local  []AbortableLocal
	state  []clusterState
	// release is, per proc id, the releaseGlobal callback Unlock hands
	// the local lock: bound once here, so a release allocates nothing.
	release []func()
	limit   int64
}

// NewAbortableCohortLock assembles an abortable cohort lock; see
// NewCohortLock for the composition contract.
func NewAbortableCohortLock(topo *numa.Topology, global AbortableGlobal, newLocal func(cluster int) AbortableLocal, opts ...Option) *AbortableCohortLock {
	o := buildOptions(opts)
	l := &AbortableCohortLock{
		global:  global,
		local:   make([]AbortableLocal, topo.Clusters()),
		state:   make([]clusterState, topo.Clusters()),
		release: make([]func(), topo.MaxProcs()),
		limit:   o.HandoffLimit,
	}
	for c := range l.local {
		l.local[c] = newLocal(c)
	}
	for id := range l.release {
		p, st := topo.Proc(id), &l.state[topo.ClusterOf(id)]
		// The pass-count reset must precede the global release: once
		// the global lock drops, a new holder may write the counter,
		// and the global lock's acquire/release atomics are what order
		// the two accesses.
		l.release[id] = func() {
			st.passes = 0
			l.global.Unlock(p)
		}
	}
	return l
}

// TryLockFor attempts to acquire the cohort lock, abandoning after
// patience. A thread that wins the local lock in global-release state
// but times out on the global lock re-releases the local lock in
// global-release state (it never held the global lock, so this cannot
// strand it) and reports failure.
func (l *AbortableCohortLock) TryLockFor(p *numa.Proc, patience time.Duration) bool {
	deadline := spin.Deadline(patience)
	c := p.Cluster()
	r, ok := l.local[c].TryLock(p, deadline)
	if !ok {
		return false
	}
	if r == ReleaseGlobal {
		if !l.global.TryLock(p, deadline) {
			l.local[c].Unlock(p, false, func() {})
			return false
		}
		l.state[c].passes = 0
	}
	return true
}

// Unlock releases the cohort lock, delegating the viable-successor
// race to the local lock (see AbortableLocal).
func (l *AbortableCohortLock) Unlock(p *numa.Proc) {
	c := p.Cluster()
	st := &l.state[c]
	s := l.local[c]
	wantLocal := (l.limit < 0 || st.passes < l.limit) && !s.Alone(p)
	if wantLocal {
		st.passes++
	}
	s.Unlock(p, wantLocal, l.release[p.ID()])
}

// HandoffLimit reports the configured may-pass-local bound.
func (l *AbortableCohortLock) HandoffLimit() int64 { return l.limit }
