package core

import (
	"sync/atomic"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/spin"
)

// BO lock word states. LocalBO uses only free and held; ABOLocal's
// free word also carries the release state (paper §3.6.1).
const (
	boFree  int32 = 0 // free; for ABOLocal, in global-release state
	boBusy  int32 = 1 // held
	boLocal int32 = 2 // ABOLocal only: free; next owner inherits the global lock
)

// localBOBackoff is the waiter backoff of both cluster-local BO locks.
// Local waiters share a cache domain, so short windows suffice; only
// the local parameters need tuning (paper §4.1.1), unlike HBO's
// four-parameter space.
var localBOBackoff = locks.BOConfig{Policy: locks.DefaultBOConfig().Policy, MinPause: 16, MaxPause: 1024}

// LocalBO is the cohort-detecting test-and-test-and-set lock of
// C-BO-BO (paper §3.1). Cohort detection uses a successor-exists flag:
// an arriving thread sets it immediately before attempting the
// acquisition CAS; the CAS winner resets it; spinning waiters
// re-assert it if they see it reset, so an incorrect-false — allowed,
// but causing a needless global release — is short-lived.
type LocalBO struct {
	word atomic.Int32
	_    numa.Pad
	succ atomic.Int32 // successor-exists
	_pb  numa.Pad
}

// NewLocalBO returns a cohort-detecting BO lock.
func NewLocalBO() *LocalBO { return &LocalBO{} }

// Lock acquires the local lock.
func (l *LocalBO) Lock(p *numa.Proc) {
	b := spin.NewBackoff(localBOBackoff.Policy, localBOBackoff.MinPause, localBOBackoff.MaxPause, p.Rand())
	for {
		if l.word.Load() == boFree {
			l.succ.Store(1)
			if l.word.CompareAndSwap(boFree, boBusy) {
				l.succ.Store(0)
				return
			}
		} else if l.succ.Load() == 0 {
			// The current owner's post-acquisition reset erased our
			// (or another waiter's) assertion; restore it. This write
			// is off the lock's critical path (paper §3.1).
			l.succ.Store(1)
		}
		b.Wait()
	}
}

// Unlock releases the lock.
func (l *LocalBO) Unlock(_ *numa.Proc) {
	l.word.Store(boFree)
}

// Alone reports the complement of successor-exists.
func (l *LocalBO) Alone(_ *numa.Proc) bool {
	return l.succ.Load() == 0
}

// ABOLocal is the abortable cohort-detecting BO lock of A-C-BO-BO
// (paper §3.6.1). It extends LocalBO with release states in the lock
// word and with the abort protocol: aborting waiters clear
// successor-exists, and the releaser double-checks the flag after a
// local release, reclaiming the hand-off (and releasing the global
// lock) if every waiter may have vanished.
type ABOLocal struct {
	word atomic.Int32
	_    numa.Pad
	succ atomic.Int32
	_pb  numa.Pad
}

// NewABOLocal returns an abortable cohort-detecting BO lock.
func NewABOLocal() *ABOLocal { return &ABOLocal{} }

// TryLock attempts acquisition until the deadline. An aborting waiter
// clears successor-exists and then performs one rescue check: if the
// lock word shows an unclaimed local release, the waiter takes it
// (reporting success) rather than strand the cluster's claim on the
// global lock.
func (l *ABOLocal) TryLock(p *numa.Proc, deadline int64) (Release, bool) {
	b := spin.NewBackoff(localBOBackoff.Policy, localBOBackoff.MinPause, localBOBackoff.MaxPause, p.Rand())
	for {
		w := l.word.Load()
		if w != boBusy {
			l.succ.Store(1)
			if l.word.CompareAndSwap(w, boBusy) {
				l.succ.Store(0)
				if w == boLocal {
					return ReleaseLocal, true
				}
				return ReleaseGlobal, true
			}
		} else if l.succ.Load() == 0 {
			l.succ.Store(1)
		}
		if spin.Expired(deadline) {
			// Abort: withdraw the successor assertion so the releaser
			// does not hand the global lock to a ghost.
			l.succ.Store(0)
			// Rescue: a release-local hand-off may already be posted
			// with every other waiter gone; claiming it is the only
			// deadlock-free option (and counts as a late success).
			if l.word.Load() == boLocal && l.word.CompareAndSwap(boLocal, boBusy) {
				return ReleaseLocal, true
			}
			return ReleaseGlobal, false
		}
		b.Wait()
	}
}

// Unlock implements the paper's double-checked release. With wantLocal
// it posts a local release, then re-reads successor-exists: if the
// flag was cleared by an aborting waiter, it attempts to reclaim the
// hand-off with a CAS (release-local → release-global); success means
// no waiter took the lock, so the global lock must be released too.
// Failure of that CAS means some thread already claimed the hand-off —
// a viable successor after all.
func (l *ABOLocal) Unlock(_ *numa.Proc, wantLocal bool, releaseGlobal func()) {
	if wantLocal {
		l.word.Store(boLocal)
		if l.succ.Load() == 0 {
			if l.word.CompareAndSwap(boLocal, boFree) {
				releaseGlobal()
			}
		}
		return
	}
	releaseGlobal()
	l.word.Store(boFree)
}

// Alone reports the complement of successor-exists.
func (l *ABOLocal) Alone(_ *numa.Proc) bool {
	return l.succ.Load() == 0
}
