package core

import (
	"repro/internal/locks"
	"repro/internal/numa"
)

// This file assembles the paper's seven named cohort locks (§3). Each
// is just a composition through NewCohortLock/NewAbortableCohortLock —
// the point of the transformation is that no further code is needed.
// The blocking ones take the base ticket and MCS locks unmodified:
// their ticket and MCS locals are locks.Ticket and locks.MCS, whose
// Alone is the paper's request-counter and successor-pointer check.

// LocalBOBackoff is the default waiter backoff for cluster-local BO
// locks. Local waiters share a cache domain, so short windows suffice;
// only the local parameters need tuning (paper §4.1.1), unlike HBO's
// four-parameter space.
func LocalBOBackoff() locks.BOConfig {
	return locks.BOConfig{Policy: locks.DefaultBOConfig().Policy, MinPause: 16, MaxPause: 1024}
}

// NewCBOBO builds the C-BO-BO lock (paper §3.1): a global BO lock over
// per-cluster BO locks augmented with the successor-exists flag.
func NewCBOBO(topo *numa.Topology, opts ...Option) *CohortLock {
	return NewCohortLock(topo, NewGlobalBO(), func(int) Local {
		return NewLocalBO(LocalBOBackoff())
	}, opts...)
}

// NewCTKTTKT builds the C-TKT-TKT lock (paper §3.2): ticket locks at
// both levels.
func NewCTKTTKT(topo *numa.Topology, opts ...Option) *CohortLock {
	return NewCohortLock(topo, locks.NewTicket(topo), func(int) Local {
		return locks.NewTicket(topo)
	}, opts...)
}

// NewCBOMCS builds the C-BO-MCS lock (paper §3.3, Figure 1): a global
// BO lock over per-cluster MCS locks. The paper's best scaler (60%
// over FC-MCS).
func NewCBOMCS(topo *numa.Topology, opts ...Option) *CohortLock {
	return NewCohortLock(topo, NewGlobalBO(), func(int) Local {
		return locks.NewMCS(topo)
	}, opts...)
}

// NewCTKTMCS builds the C-TKT-MCS lock (paper §3.5): a global ticket
// lock over local MCS locks (retaining local spinning) — the paper's
// "best of both" combination.
func NewCTKTMCS(topo *numa.Topology, opts ...Option) *CohortLock {
	return NewCohortLock(topo, locks.NewTicket(topo), func(int) Local {
		return locks.NewMCS(topo)
	}, opts...)
}

// NewCMCSMCS builds the C-MCS-MCS lock (paper §3.4): MCS at both
// levels. The paper circulates global queue nodes so that any cohort
// thread can release; here the cohort releases the global MCS with
// the node of the proc that acquired it, so no node circulates.
func NewCMCSMCS(topo *numa.Topology, opts ...Option) *CohortLock {
	return NewCohortLock(topo, locks.NewMCS(topo), func(int) Local {
		return locks.NewMCS(topo)
	}, opts...)
}

// NewCBOCLH builds a C-BO-CLH lock: a global BO lock over
// cohort-detecting CLH locks. Not one of the paper's seven named
// constructions, but a direct instance of its claim that "most locks
// can be used in the cohort locking transformation" (§3) — CLH offers
// the same local spinning as MCS, with an exact tail-check alone?.
func NewCBOCLH(topo *numa.Topology, opts ...Option) *CohortLock {
	return NewCohortLock(topo, NewGlobalBO(), func(int) Local {
		return NewLocalCLH(topo)
	}, opts...)
}

// NewACBOBO builds the abortable A-C-BO-BO lock (paper §3.6.1): an
// abortable global BO lock over abortable local BO locks whose
// releasers double-check successor-exists against aborting waiters.
func NewACBOBO(topo *numa.Topology, opts ...Option) *AbortableCohortLock {
	return NewAbortableCohortLock(topo, NewGlobalBO(), func(int) AbortableLocal {
		return NewABOLocal(LocalBOBackoff())
	}, opts...)
}

// NewACBOCLH builds the abortable A-C-BO-CLH lock (paper §3.6.2): an
// abortable global BO lock over abortable CLH locks whose queue nodes
// colocate the predecessor state with the successor-aborted flag. The
// paper's first NUMA-aware abortable queue lock, and its fastest.
func NewACBOCLH(topo *numa.Topology, opts ...Option) *AbortableCohortLock {
	return NewAbortableCohortLock(topo, NewGlobalBO(), func(int) AbortableLocal {
		return NewACLHLocal(topo)
	}, opts...)
}
