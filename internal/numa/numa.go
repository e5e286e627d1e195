// Package numa models the NUMA topology that lock cohorting targets.
//
// The paper's testbed exposes hardware NUMA clusters (one Niagara T2+
// socket each) and binds threads to them. The Go runtime deliberately
// hides OS threads, so this package substitutes an explicit software
// topology: a Topology declares the number of clusters, and every
// worker goroutine carries a *Proc handle that pins it to a logical
// cluster for its lifetime. Cohort locks, the cache-coherence
// simulator, and all harnesses consult only the Proc's cluster id and
// dense proc id, which is the full extent of hardware knowledge the
// paper's algorithms require.
package numa

import (
	"fmt"

	"repro/internal/spin"
)

// CacheLineBytes is the assumed coherence granularity. Padding uses
// twice this to defeat adjacent-line prefetchers.
const CacheLineBytes = 64

// Pad is inserted between logically independent hot fields to prevent
// false sharing.
type Pad [2 * CacheLineBytes]byte

// Topology describes a machine as a set of symmetric clusters and a
// bounded set of logical processors (worker threads). All lock
// implementations size their per-thread state from MaxProcs, so the
// topology fixes the maximum concurrency up front, mirroring the
// paper's fixed 256-context machine.
type Topology struct {
	procs   []*Proc
	members [][]int // each cluster's proc ids, in id order
}

// New returns a topology with the given cluster count and maximum
// number of logical processors. Placement is round-robin: consecutive
// procs spread across clusters (proc i -> cluster i mod C), as the
// paper's experiments load all four sockets at every thread count. It
// panics on non-positive arguments, which indicate programmer error.
func New(clusters, maxProcs int) *Topology {
	if clusters <= 0 || maxProcs <= 0 {
		panic(fmt.Sprintf("numa: New(%d, %d): clusters and maxProcs must be positive", clusters, maxProcs))
	}
	t := &Topology{procs: make([]*Proc, maxProcs), members: make([][]int, clusters)}
	for i := range t.procs {
		t.procs[i] = &Proc{
			id:      i,
			cluster: i % clusters,
			rng:     spin.NewXorShift(uint64(i) + 1),
			parker:  spin.MakeParker(),
		}
		t.members[i%clusters] = append(t.members[i%clusters], i)
	}
	// The topology's processor count is the best available estimate of
	// worker concurrency, so it selects the spin discipline (pure
	// spinning with dedicated processors, spin-then-park beyond
	// GOMAXPROCS). Harnesses refine this per run with the actual
	// thread count.
	spin.AutoOversubscribe(maxProcs)
	return t
}

// Clusters reports the number of NUMA clusters.
func (t *Topology) Clusters() int { return len(t.members) }

// MaxProcs reports the maximum number of logical processors; proc ids
// are dense in [0, MaxProcs).
func (t *Topology) MaxProcs() int { return len(t.procs) }

// Proc returns the handle for logical processor id. Handles are
// preallocated and stable; the same id always yields the same *Proc.
// It panics if id is out of range.
func (t *Topology) Proc(id int) *Proc {
	if id < 0 || id >= len(t.procs) {
		panic(fmt.Sprintf("numa: proc id %d out of range [0,%d)", id, len(t.procs)))
	}
	return t.procs[id]
}

// Members returns the ids of cluster c's procs in id order, a
// combiner's scan order. The slice is shared; do not modify it.
func (t *Topology) Members(c int) []int { return t.members[c] }

// Proc identifies one logical processor (worker thread). Exactly one
// goroutine may use a given Proc at a time; handles carry per-thread
// scratch state (an RNG) that is deliberately unsynchronized, and the
// parker that goroutine blocks on.
type Proc struct {
	id      int
	cluster int
	rng     spin.XorShift
	parker  spin.Parker
	_       Pad
}

// ID reports the dense processor id in [0, MaxProcs).
func (p *Proc) ID() int { return p.id }

// Cluster reports the NUMA cluster this processor belongs to.
func (p *Proc) Cluster() int { return p.cluster }

// Parker returns the one parker this processor's goroutine waits on,
// whatever lock it waits for (see spin.Parker).
func (p *Proc) Parker() *spin.Parker { return &p.parker }

// Rand returns the next value of the processor-local RNG.
func (p *Proc) Rand() uint64 { return p.rng.Next() }

// RandN returns a processor-local pseudo-random value in [0, n).
func (p *Proc) RandN(n int64) int64 { return p.rng.IntN(n) }
