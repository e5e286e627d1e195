package core

import (
	"math"

	"repro/internal/numa"
)

// Blocking returns l as a blocking cohort-detecting lock whose waiters
// never abort: Lock is TryLock with a deadline that never comes, and
// Unlock always releases in global-release state, since CohortLock
// keeps its cluster's claim on the global lock in its own record.
// C-BO-BO's and C-BO-CLH's locals are A-C-BO-BO's and A-C-BO-CLH's
// behind it.
func Blocking(l AbortableLocal) Local { return blocking{l} }

// blocking is an abortable local lock used through Blocking; it keeps
// the lock's Alone.
type blocking struct{ AbortableLocal }

// Lock acquires the lock, however long that takes.
func (b blocking) Lock(p *numa.Proc) { b.TryLock(p, math.MaxInt64) }

// Unlock releases the lock in global-release state.
func (b blocking) Unlock(p *numa.Proc) { b.AbortableLocal.Unlock(p, false) }
