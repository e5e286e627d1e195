package core

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// BO lock word states; the free word carries the release state (paper
// §3.6.1).
const (
	boFree  int32 = 0 // free, in global-release state
	boBusy  int32 = 1 // held
	boLocal int32 = 2 // free; next owner inherits the global lock
)

// The waiter backoff of the cluster-local BO lock is exponential over
// this window, in pause units. Local waiters share a cache domain, so
// short windows suffice; only the local parameters need tuning (paper
// §4.1.1), unlike HBO's four-parameter space.
const (
	localBOMinPause = 16
	localBOMaxPause = 1024
)

// ABOLocal is the abortable cohort-detecting test-and-test-and-set
// lock of A-C-BO-BO (paper §3.6.1), and behind Blocking C-BO-BO's
// (§3.1). Cohort detection uses a successor-exists flag: an arriving
// thread sets it just before its acquisition CAS, the CAS winner
// resets it, and spinning waiters re-assert it, so an incorrect-false
// (a needless global release) is short-lived. Abortability adds
// release states to the lock word and the abort protocol: aborting
// waiters clear successor-exists, and the releaser double-checks the
// flag after a local release, reclaiming the hand-off (and releasing
// the global lock) if every waiter may have vanished.
type ABOLocal struct {
	word atomic.Int32
	_    numa.Pad
	succ atomic.Int32 // successor-exists
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
	b := spin.NewBackoff(spin.PolicyExponential, localBOMinPause, localBOMaxPause, p.Rand())
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
			// The owner's post-acquisition reset erased an assertion;
			// restore it, off the critical path (paper §3.1).
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
// no waiter took the lock, so the global lock must be released too,
// and Unlock reports false. Failure of that CAS means some thread
// already claimed the hand-off — a viable successor after all.
func (l *ABOLocal) Unlock(_ *numa.Proc, wantLocal bool) bool {
	if wantLocal {
		l.word.Store(boLocal)
		return l.succ.Load() != 0 || !l.word.CompareAndSwap(boLocal, boFree)
	}
	l.word.Store(boFree)
	return false
}

// Alone reports the complement of successor-exists.
func (l *ABOLocal) Alone(_ *numa.Proc) bool {
	return l.succ.Load() == 0
}
