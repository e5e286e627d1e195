package locks

import (
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// RWMutex is a reader-writer lock operating on Proc handles: Lock and
// Unlock acquire and release exclusive (write) mode exactly as Mutex
// does, RLock and RUnlock acquire and release shared (read) mode. Any
// number of readers may hold shared mode together; exclusive mode
// excludes readers and writers alike.
//
// Every Mutex slots into the interface through RWFromMutex, which maps
// shared mode onto exclusive mode — correct, just not concurrent — so
// code written against RWMutex degrades gracefully to the whole
// existing lock family.
type RWMutex interface {
	Mutex
	RLock(p *numa.Proc)
	RUnlock(p *numa.Proc)
}

// rwExclusive adapts a Mutex to RWMutex by taking every acquisition in
// exclusive mode.
type rwExclusive struct {
	Mutex
}

func (l rwExclusive) RLock(p *numa.Proc)   { l.Lock(p) }
func (l rwExclusive) RUnlock(p *numa.Proc) { l.Unlock(p) }

// RWFromMutex adapts any mutual-exclusion lock to the RWMutex
// interface: shared mode is exclusive mode, so a read path written
// against RWMutex (the kvstore's Get) takes exactly the unwrapped
// lock's acquisitions.
func RWFromMutex(m Mutex) RWMutex {
	return rwExclusive{Mutex: m}
}

// rwReaderSlot is one cluster's reader count, padded so clusters never
// share a line.
type rwReaderSlot struct {
	n atomic.Int64
	_ numa.Pad
}

// RWPerCluster is the generic NUMA-aware reader-writer construction:
// per-cluster reader counters over an arbitrary writer lock. It is the
// cohort papers' reader-writer transformation with the writer medium
// left pluggable — hand it a cohort lock and you get the classic
// cohort RW lock, hand it a CNA lock and writers keep CNA's
// single-queue locality, hand it a plain MCS lock and only the readers
// are NUMA-aware.
//
// Readers touch exactly one line: their own cluster's counter, so
// concurrent readers on different clusters never exchange cache
// traffic. Writers serialize through the writer lock (inheriting its
// hand-off and locality policy), then raise a writer flag and drain
// every cluster's counter.
//
// The protocol is writer-preference with reader back-off:
//
//   - A reader increments its cluster's counter, then checks the
//     writer flag. If a writer is active, it backs out, waits for the
//     flag to clear, and retries — so arriving readers cannot starve a
//     writer that has already claimed the lock.
//   - A writer acquires the writer lock (mutual exclusion among
//     writers), raises the flag, and waits for every cluster's reader
//     count to drain.
//
// The flag is raised only while holding the writer lock, so at most
// one writer toggles it at a time.
type RWPerCluster struct {
	writers Mutex
	wflag   atomic.Int32
	_       numa.Pad
	readers []rwReaderSlot
}

// NewRWPerCluster builds the reader-writer construction over the given
// writer lock, which must be fresh (not shared with other users).
func NewRWPerCluster(topo *numa.Topology, writers Mutex) *RWPerCluster {
	return &RWPerCluster{
		writers: writers,
		readers: make([]rwReaderSlot, topo.Clusters()),
	}
}

// RLock acquires the lock in shared mode.
func (l *RWPerCluster) RLock(p *numa.Proc) {
	slot := &l.readers[p.Cluster()]
	for {
		slot.n.Add(1)
		if l.wflag.Load() == 0 {
			return // no writer: read section is open
		}
		// A writer is active or draining readers: back out and wait.
		slot.n.Add(-1)
		for i := 0; l.wflag.Load() != 0; i++ {
			spin.Poll(i)
		}
	}
}

// RUnlock releases shared mode.
func (l *RWPerCluster) RUnlock(p *numa.Proc) {
	l.readers[p.Cluster()].n.Add(-1)
}

// Lock acquires the lock in exclusive mode.
func (l *RWPerCluster) Lock(p *numa.Proc) {
	l.writers.Lock(p)
	l.wflag.Store(1)
	// Wait for in-flight readers, cluster by cluster. New readers see
	// the flag and back out.
	for c := range l.readers {
		for i := 0; l.readers[c].n.Load() != 0; i++ {
			spin.Poll(i)
		}
	}
}

// Unlock releases exclusive mode.
func (l *RWPerCluster) Unlock(p *numa.Proc) {
	l.wflag.Store(0)
	l.writers.Unlock(p)
}

// ActiveReaders reports the current reader count (racy; diagnostics
// and tests only).
func (l *RWPerCluster) ActiveReaders() int64 {
	var n int64
	for c := range l.readers {
		n += l.readers[c].n.Load()
	}
	return n
}

// Interface conformance checks.
var (
	_ RWMutex = rwExclusive{}
	_ RWMutex = (*RWPerCluster)(nil)
)
