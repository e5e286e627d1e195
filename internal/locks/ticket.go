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
// Waiters park per-ticket: slot ticket%len(parkers) can host at most
// one waiter because at most MaxProcs threads wait concurrently, so
// the releaser's targeted wake is exact.
type Ticket struct {
	request atomic.Uint64
	_       numa.Pad
	grant   atomic.Uint64
	_pad2   numa.Pad
	parkers []parkSlot
}

type parkSlot struct {
	p spin.Parker
	_ numa.Pad
}

// NewTicket returns an unlocked ticket lock sized for topo's
// processors.
func NewTicket(topo *numa.Topology) *Ticket {
	l := &Ticket{parkers: make([]parkSlot, topo.MaxProcs())}
	for i := range l.parkers {
		l.parkers[i].p = spin.MakeParker()
	}
	return l
}

// Lock takes a ticket and waits until it is granted.
func (l *Ticket) Lock(_ *numa.Proc) {
	t := l.request.Add(1) - 1
	if l.grant.Load() == t {
		return
	}
	l.parkers[t%uint64(len(l.parkers))].p.Wait(func() bool { return l.grant.Load() == t })
}

// Unlock grants the next ticket and wakes exactly its holder.
func (l *Ticket) Unlock(_ *numa.Proc) {
	g := l.grant.Add(1)
	l.parkers[g%uint64(len(l.parkers))].p.Wake()
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
