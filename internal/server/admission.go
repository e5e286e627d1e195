package server

import (
	"sync"

	"repro/internal/numa"
)

// This file is the adaptive half of the front door. PR 7 made
// admission structural — a per-cluster pool of Proc handles whose
// exhaustion stops the accept loop — but the cap was static. Here the
// cap tracks the sampled combining occupancy (locks.EstimateOccupancy,
// the GCR lineage's admission signal) with hysteresis, and a second,
// higher threshold arms op shedding for the overload the cap cannot
// absorb. The escalation ladder, in order (see DESIGN.md §8):
//
//  1. admission shrinks — new clients wait in the listen backlog, the
//     clients already inside keep their full service;
//  2. ops shed — flushes answer "SERVER_ERROR busy" (frame-preserving,
//     never acknowledged-then-dropped) instead of queueing unboundedly;
//  3. deadlines escalate — while shedding, blocked reads and writes get
//     the busy timeout, so a stalled client cannot pin a Proc for the
//     full idle timeout during an overload.
//
// Every transition is driven by noteOccupancy, one call per sampler
// tick, which is also the test seam: unit tests replay occupancy
// sequences and assert the cap and shed-flag trajectory.

const (
	// overTicksToShrink consecutive samples at or above BusyThreshold
	// halve the admission cap: 4 ticks = 100ms of sustained overload at
	// the 25ms sampling interval, long enough to ignore a single burst.
	overTicksToShrink = 4
	// shedTicksToEngage accumulated acute samples arm op shedding. A
	// sample is acute at or above shedMultiplier*BusyThreshold — or at
	// plain BusyThreshold once the cap has already shrunk to its floor,
	// the overload admission cannot absorb. The counter decays by one
	// on a calm sample instead of resetting, so a high-duty-cycle
	// overload still accumulates; at 8 ticks the window is twice the
	// shrink window, so admission has demonstrably shrunk before any op
	// is refused — the cap is the gentle valve, shedding the acute one.
	shedTicksToEngage = 8
	// underTicksToGrow consecutive samples below BusyThreshold/2 (the
	// clear watermark) grow the cap by one. Shrink is multiplicative,
	// recovery additive and slower by design: re-admitting too eagerly
	// re-creates the collapse the shrink just stopped. Samples between
	// the watermarks hold the cap where it is — the hysteresis band.
	underTicksToGrow = 8
	// shedMultiplier scales BusyThreshold into the shedding threshold.
	shedMultiplier = 2
)

// admission is one cluster's adaptive cap state. The Proc handles a
// shrink withholds are parked in held, outside the pool the accept
// loop blocks on — withheld procs mean fewer concurrent admissions,
// the same structural back-pressure as the static cap. Only idle
// procs are ever withheld: connections in flight keep theirs until
// they close, at which point releaseProc routes the handle to held if
// the cluster is still over cap.
type admission struct {
	mu   sync.Mutex
	full int // configured cap (procs dealt to the pool at startup)
	cap  int // current effective cap, in [1, full]
	held []*numa.Proc
}

// noteOccupancy consumes one occupancy sample: it advances the peak
// gauge and, under AdaptiveAdmission, the hysteresis counters that
// shrink/grow the cap and arm/clear shedding. Called only from the
// sampler goroutine (or a test standing in for it).
func (s *Server) noteOccupancy(occ int) {
	if int64(occ) > s.occMax.Load() {
		s.occMax.Store(int64(occ))
	}
	if !s.cfg.AdaptiveAdmission {
		return
	}
	busy := s.cfg.BusyThreshold
	switch {
	case occ >= busy:
		s.overTicks++
		s.underTicks = 0
	case occ*2 < busy:
		s.underTicks++
		s.overTicks = 0
	default:
		// Between the watermarks: neither sustained overload nor
		// sustained clearance. Hold the cap.
		s.overTicks, s.underTicks = 0, 0
	}
	cur, _ := s.admissionCaps()
	acute := occ >= busy*shedMultiplier || (cur == 1 && occ >= busy)
	if acute {
		s.shedTicks++
	} else if s.shedTicks > 0 {
		s.shedTicks--
	}
	// Shedding clears the moment pressure drops below the busy line —
	// refusing ops is expensive for clients, so the acute valve closes
	// fast while the admission cap recovers slowly.
	if occ < busy && s.shedFlag.Load() {
		s.shedFlag.Store(false)
	}
	if s.overTicks >= overTicksToShrink {
		s.overTicks = 0
		s.shrinkAdmission()
	}
	if s.shedTicks >= shedTicksToEngage && !s.shedFlag.Load() {
		s.shedFlag.Store(true)
	}
	if s.underTicks >= underTicksToGrow {
		s.underTicks = 0
		s.growAdmission()
	}
}

// shrinkAdmission halves every cluster's effective cap (floor 1) and
// withholds as many idle procs as the new cap demands. Procs serving
// live connections are untouched; releaseProc catches them on close.
func (s *Server) shrinkAdmission() {
	low := int64(1 << 30)
	for c := range s.adm {
		a := &s.adm[c]
		a.mu.Lock()
		a.cap = max(1, a.cap/2)
		idle := true
		for idle && len(a.held) < a.full-a.cap {
			select {
			case p := <-s.pools[c]:
				a.held = append(a.held, p)
			default:
				// Pool drained: the remaining over-cap procs are busy;
				// they park in held as their connections end.
				idle = false
			}
		}
		if int64(a.cap) < low {
			low = int64(a.cap)
		}
		a.mu.Unlock()
	}
	if low < s.capLow.Load() {
		s.capLow.Store(low)
	}
}

// growAdmission raises every cluster's cap by one (ceiling full) and
// returns the freed procs to the pool, where the accept loop picks
// them up immediately.
func (s *Server) growAdmission() {
	for c := range s.adm {
		a := &s.adm[c]
		a.mu.Lock()
		a.cap = min(a.full, a.cap+1)
		for len(a.held) > a.full-a.cap {
			p := a.held[len(a.held)-1]
			a.held = a.held[:len(a.held)-1]
			s.pools[c] <- p
		}
		a.mu.Unlock()
	}
}

// releaseProc returns a connection's Proc when it ends: to the held
// set if the cluster is over its current cap (completing a pending
// shrink), otherwise back to the pool for the next admission.
func (s *Server) releaseProc(cluster int, p *numa.Proc) {
	a := &s.adm[cluster]
	a.mu.Lock()
	if len(a.held) < a.full-a.cap {
		a.held = append(a.held, p)
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	s.pools[cluster] <- p
}

// admissionCaps reports the current and configured per-cluster caps
// (minimum across clusters — the binding constraint).
func (s *Server) admissionCaps() (cur, full int) {
	cur, full = 1<<30, 1<<30
	for c := range s.adm {
		a := &s.adm[c]
		a.mu.Lock()
		cur = min(cur, a.cap)
		full = min(full, a.full)
		a.mu.Unlock()
	}
	return cur, full
}

// OccupancyTracked reports whether any shard lock exposes an occupancy
// estimate — the signal both the MaxOccupancy gauge and adaptive
// admission need. False means AdaptiveAdmission is inert (the store's
// lock family has no estimator; use a comb-a-* lock).
func (s *Server) OccupancyTracked() bool { return s.occTracked }
