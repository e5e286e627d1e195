// Package core implements the paper's contribution: the lock cohorting
// transformation (Dice, Marathe, Shavit; PPoPP 2012).
//
// A cohort lock composes one global lock G with one cohort-detecting
// local lock S_i per NUMA cluster. A thread acquires its cluster's
// S_i; if its cluster already owns G it enters the critical section
// immediately, otherwise it acquires G itself. A
// releasing thread that detects waiting cohort threads — and has not
// exhausted the may-pass-local hand-off budget — releases only S_i,
// passing global ownership within the cluster at the cost of a purely
// cluster-local operation.
//
// The paper encodes "does this cluster own G?" in each local lock's
// release state (§3.1-3.4). CohortLock keeps that bit, and the proc
// that acquired G, in its own per-cluster record instead, so its slots
// take unmodified locks: any locks.Mutex on top, and below any lock
// that can also answer alone?. Only the abortable transformation
// (AbortableCohortLock, §3.6) keeps the release state in the local
// lock word, where the viable-successor race is decided: the local
// Unlock reports whether it handed off locally, and the cohort
// releases the global lock itself when it did not.
//
// The package provides both transformations, a thread-oblivious
// global BO lock, the abortable BO and A-CLH locals, which Blocking
// makes the blocking BO and CLH locals too (the MCS and ticket locals
// are locks.MCS and locks.Ticket), and ACLH, Scott's abortable CLH
// lock, which is the A-CLH local used alone (registry name a-clh). It
// names no composition: the paper's seven (C-BO-BO … A-C-BO-CLH) are
// registry names, each one call to NewCohortLock or
// NewAbortableCohortLock over two slot locks.
package core

import (
	"repro/internal/locks"
	"repro/internal/numa"
)

// Release is the state an abortable cohort local lock is released in:
// it tells the next local acquirer whether its cluster still holds the
// global lock. Only AbortableLocal carries it; the blocking
// CohortLock keeps the same bit in its own per-cluster record.
type Release int32

const (
	// ReleaseGlobal means the global lock was released alongside the
	// local lock: the next local owner must acquire the global lock
	// before entering the critical section. This is also the state of
	// a fresh (never held) lock.
	ReleaseGlobal Release = iota
	// ReleaseLocal means the releasing thread kept the global lock on
	// behalf of the cluster: the next local owner inherits it and may
	// enter the critical section directly.
	ReleaseLocal
)

// Global is the cohort's global lock: any mutual-exclusion lock. The
// cohort releases it on behalf of the proc that acquired it, which may
// not be the releasing thread; a lock keyed by proc (locks.MCS) is
// therefore thread-oblivious here, because that proc cannot call Lock
// on it again until the matching Unlock has returned.
type Global = locks.Mutex

// Local is a cohort-detecting mutual-exclusion lock: any lock whose
// holder can ask Alone, the paper's alone? predicate. If no other
// thread is concurrently executing Lock, Alone returns true. False
// positives (reporting alone while a waiter exists) are permitted —
// they cost an unnecessary global release; false negatives would
// strand the global lock on an empty cluster and are forbidden.
type Local interface {
	locks.Mutex
	Alone(p *numa.Proc) bool
}

// AbortableGlobal is a thread-oblivious lock supporting bounded-
// patience acquisition. TryLock returns false if the deadline (a
// spin.Now-based timestamp) passes first.
type AbortableGlobal interface {
	TryLock(p *numa.Proc, deadline int64) bool
	Unlock(p *numa.Proc)
}

// AbortableLocal is a cohort-detecting lock whose waiters may abort.
// The cohort-detection property is strengthened (paper §3.6): a local
// release may only hand the global lock to a *viable* successor — one
// that can no longer abort. Because closing that race is intrinsic to
// each lock's representation, Unlock decides it and reports the
// outcome:
//
//   - If wantLocal is true and a viable successor exists, Unlock
//     releases in local-release state and returns true: the successor
//     inherits the global lock.
//   - Otherwise Unlock releases in global-release state and returns
//     false. A caller that holds the global lock must then release it;
//     one that never held it (a waiter abandoning the local lock after
//     timing out on the global one) ignores the result.
//
// TryLock returns (state, true) on acquisition — which may occur even
// after the deadline if a hand-off wins the race against the abort, as
// in Scott's A-CLH — and (0, false) if the attempt was abandoned.
type AbortableLocal interface {
	TryLock(p *numa.Proc, deadline int64) (Release, bool)
	Unlock(p *numa.Proc, wantLocal bool) bool
	Alone(p *numa.Proc) bool
}

// DefaultHandoffLimit is the paper's bound on consecutive local
// hand-offs (may-pass-local): after 64 in-cluster transfers the global
// lock must be released to keep long-term fairness.
const DefaultHandoffLimit = 64

// Options configures a cohort lock.
type Options struct {
	// HandoffLimit bounds consecutive local hand-offs. Zero selects
	// DefaultHandoffLimit; a negative value removes the bound entirely
	// (the "deeply unfair" variant the paper ablates, ~10% faster
	// under high contention at the price of starvation).
	HandoffLimit int64
}

// Option mutates Options; see WithHandoffLimit.
type Option func(*Options)

// WithHandoffLimit sets Options.HandoffLimit.
func WithHandoffLimit(n int64) Option {
	return func(o *Options) { o.HandoffLimit = n }
}

func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	if o.HandoffLimit == 0 {
		o.HandoffLimit = DefaultHandoffLimit
	}
	return o
}

// clusterState is per-cluster bookkeeping, touched only by the holder
// of that cluster's local lock (the local lock's acquire/release
// atomics order these plain accesses).
type clusterState struct {
	// holder is the proc that acquired the global lock for this
	// cluster; nil means the cluster does not hold it. Unused by
	// AbortableCohortLock, whose locals carry that bit.
	holder *numa.Proc
	passes int64 // consecutive local hand-offs since the global acquisition
	_      numa.Pad
}
