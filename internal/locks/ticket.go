package locks

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// Ticket is the classic two-counter ticket lock: acquirers take a
// ticket from request and wait for grant to reach it; the releaser
// increments grant. FIFO-fair, and trivially thread-oblivious (any
// thread may perform the grant increment), which the paper exploits
// when using it as a cohort global lock.
//
// A waiter names its parker in slot ticket%len(waiters). A slot hosts
// at most one waiter, because at most MaxProcs tickets are outstanding,
// so the releaser's targeted wake is exact.
type Ticket struct {
	request atomic.Uint64
	_       numa.Pad
	grant   atomic.Uint64
	_pad2   numa.Pad
	waiters []atomic.Pointer[spin.Parker]
}

// NewTicket returns an unlocked ticket lock sized for topo's
// processors.
func NewTicket(topo *numa.Topology) *Ticket {
	return &Ticket{waiters: make([]atomic.Pointer[spin.Parker], topo.MaxProcs())}
}

// Lock takes a ticket and waits until it is granted, naming its parker
// in its slot before Wait re-checks grant (spin.Parker: publish and
// wake). It clears the slot while its ticket is still outstanding, so
// before the slot's next waiter can publish.
func (l *Ticket) Lock(p *numa.Proc) {
	t := l.request.Add(1) - 1
	if l.grant.Load() == t {
		return
	}
	w := &l.waiters[t%uint64(len(l.waiters))]
	w.Store(p.Parker())
	p.Parker().Wait(func() bool { return l.grant.Load() == t })
	w.Store(nil)
}

// Unlock grants the next ticket and wakes its waiter, if one is named.
func (l *Ticket) Unlock(_ *numa.Proc) {
	g := l.grant.Add(1)
	if pk := l.waiters[g%uint64(len(l.waiters))].Load(); pk != nil {
		pk.Wake()
	}
}

// Alone reports whether no later ticket has been requested: the
// alone? predicate that makes the ticket lock a cohort local lock
// (paper §3.2). The holder of ticket t observes grant == t, and
// waiters exist exactly when request > t+1.
func (l *Ticket) Alone(_ *numa.Proc) bool { return l.request.Load() == l.grant.Load()+1 }

// Holders reports the (request, grant) counters, for tests.
func (l *Ticket) Holders() (request, grant uint64) {
	return l.request.Load(), l.grant.Load()
}
