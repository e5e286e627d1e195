package core

import (
	"sync/atomic"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/spin"
)

// This file implements generic concurrency restriction (GCR) after
// Dice and Kogan, "Avoiding Scalability Collapse by Restricting
// Concurrency" (2019): past saturation, adding threads to a lock only
// adds hand-off latency, cache pressure and — under the Go runtime —
// scheduler round-trips, so admission control around *any* lock beats
// letting everyone compete. Restricted wraps an arbitrary locks.Mutex
// and admits at most K waiters per NUMA cluster into competition for
// it; surplus arrivals park in per-cluster FIFO ticket order via
// internal/spin's parker.
//
// Admission is a ticket semaphore: an arrival takes the next ticket t
// of its cluster and may compete once fewer than K earlier tickets
// remain unretired (t - exits < K). Every release retires one ticket
// and wakes exactly the newly admitted waiter — that slow-path
// promotion is what makes parked waiters starvation-free: admission is
// strictly ticket order, so a parked waiter is promoted after at most
// K-1 retirements once it reaches the front, no matter how eagerly the
// admitted set re-arrives (re-arrivals queue behind it).

// gcrWaiter is one proc's registration record for one Restricted
// lock: the ticket it is currently throttled on (-1 when none) and
// the parker a promotion wakes. Only the owning proc ever writes
// ticket, which is what makes the wake protocol loss-free: a
// registration cannot be overwritten by other threads, so a
// releaser's scan finds it no matter how late the releaser runs.
type gcrWaiter struct {
	ticket atomic.Int64
	parker spin.Parker
	_      numa.Pad
}

// gcrCluster is one cluster's admission state. tickets and exits are
// hammered by different populations (arrivals vs releasers), so they
// live on separate cache lines.
type gcrCluster struct {
	tickets atomic.Int64
	_       numa.Pad
	exits   atomic.Int64
	_       numa.Pad
	// waiters holds the registration records of this cluster's procs;
	// a releaser scans it for the one ticket its exit admitted.
	waiters []*gcrWaiter
}

// Restricted is a concurrency-restriction wrapper around an inner
// lock. It is itself a locks.Mutex, so it composes with everything the
// registry can build, including cohort locks and CNA.
type Restricted struct {
	inner locks.Mutex
	limit int64
	cls   []gcrCluster
	procs []gcrWaiter // indexed by proc id
}

// DefaultActivePerCluster is the admission bound NewRestricted applies
// when given a non-positive limit: enough competitors per cluster to
// fill spin.CPUs (GOMAXPROCS in real mode) and no more, the point past
// which the restriction paper shows extra waiters only slow it down.
func DefaultActivePerCluster(topo *numa.Topology) int {
	k := spin.CPUs() / topo.Clusters()
	if k < 1 {
		k = 1
	}
	return k
}

// NewRestricted wraps inner with per-cluster admission control. At
// most perCluster waiters per cluster compete for inner at once; a
// non-positive perCluster selects DefaultActivePerCluster.
func NewRestricted(topo *numa.Topology, inner locks.Mutex, perCluster int) *Restricted {
	if perCluster <= 0 {
		perCluster = DefaultActivePerCluster(topo)
	}
	l := &Restricted{
		inner: inner,
		limit: int64(perCluster),
		cls:   make([]gcrCluster, topo.Clusters()),
		procs: make([]gcrWaiter, topo.MaxProcs()),
	}
	for i := range l.procs {
		l.procs[i].parker = spin.MakeParker()
		l.procs[i].ticket.Store(-1)
		c := &l.cls[topo.ClusterOf(i)]
		c.waiters = append(c.waiters, &l.procs[i])
	}
	return l
}

// Waiting reports how many procs of cluster c are currently throttled
// (ticketed but not yet admitted). Monitoring only; racy by nature.
func (l *Restricted) Waiting(c int) int {
	q := l.cls[c].tickets.Load() - l.cls[c].exits.Load() - l.limit
	if q < 0 {
		q = 0
	}
	return int(q)
}

// Lock admits the caller — immediately if its cluster has a free
// admission slot, otherwise after parking until its ticket is reached
// — and then acquires the inner lock.
func (l *Restricted) Lock(p *numa.Proc) {
	c := &l.cls[p.Cluster()]
	t := c.tickets.Add(1) - 1
	if t-c.exits.Load() >= l.limit {
		w := &l.procs[p.ID()]
		// Publish the ticket before the admission check inside Wait: a
		// releaser that scans before this store has not yet retired the
		// ticket we would be waiting on, so the re-check sees the new
		// exit count before the waiter can park. The registration is
		// left in place — tickets are unique and increasing, so a past
		// value can never equal a future exit's target and needs no
		// reset.
		w.ticket.Store(t)
		w.parker.Wait(func() bool { return t-c.exits.Load() < l.limit })
	}
	l.inner.Lock(p)
}

// Unlock releases the inner lock, retires the caller's ticket, and
// promotes the newly admitted waiter, if any.
func (l *Restricted) Unlock(p *numa.Proc) {
	l.inner.Unlock(p)
	c := &l.cls[p.Cluster()]
	e := c.exits.Add(1)
	// Tickets below e+limit are now admitted; adm = e+limit-1 is the
	// one this exit freed. Scan the cluster's registrations for it —
	// only on the throttled path (tickets beyond adm exist), so the
	// uncontended cost is two loads. The scan may run arbitrarily late,
	// but the registration it looks for is owner-written and therefore
	// still present if the waiter is still parked: a promotion can be
	// slow, never lost.
	adm := e + l.limit - 1
	if c.tickets.Load() > adm {
		for _, w := range c.waiters {
			if w.ticket.Load() == adm {
				w.parker.Wake()
				break
			}
		}
	}
}
