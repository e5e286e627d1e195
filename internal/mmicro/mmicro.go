// Package mmicro is the paper's malloc stress benchmark (§4.3, citing
// Dice & Garthwaite's mmicro): each thread repeatedly allocates a
// 64-byte block, initializes its first four words, and frees it, with
// an artificial ~4 µs delay after each of the two calls so waiting
// threads can overlap with the critical sections. It reports
// malloc-free pairs per millisecond, Table 2's unit.
package mmicro

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/closedloop"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/spin"
)

// Config describes one mmicro run.
type Config struct {
	Topo *numa.Topology
	// Threads is the worker count (paper: 1..255).
	Threads int
	// Duration is the measurement window (paper: 10 s).
	Duration time.Duration
	// BlockSize is the allocation size (paper: 64 bytes).
	BlockSize int
	// InitWords is how many 8-byte words each thread writes into a
	// fresh block (paper: "the first 4 words").
	InitWords int
	// DelayNs is the artificial delay after each malloc and each free
	// (paper: about 4 µs).
	DelayNs int64
	// ArenaBytes sizes the allocator arena.
	ArenaBytes int
}

// DefaultConfig mirrors the paper's parameters with a short window.
func DefaultConfig(topo *numa.Topology, threads int) Config {
	return Config{
		Topo:       topo,
		Threads:    threads,
		Duration:   300 * time.Millisecond,
		BlockSize:  64,
		InitWords:  4,
		DelayNs:    4000,
		ArenaBytes: 64 << 20,
	}
}

func (c *Config) validate() error {
	if err := closedloop.Check(c.Topo, c.Threads, c.Duration); err != nil {
		return fmt.Errorf("mmicro: %w", err)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("mmicro: non-positive block size")
	}
	if c.InitWords*8 > c.BlockSize {
		return fmt.Errorf("mmicro: %d init words exceed %d-byte block", c.InitWords, c.BlockSize)
	}
	return nil
}

// Result aggregates one run.
type Result struct {
	Pairs     uint64
	PerThread []uint64
	Elapsed   time.Duration
	Alloc     alloc.Stats
}

// PairsPerMs reports malloc-free pairs per millisecond (Table 2's
// metric).
func (r Result) PairsPerMs() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Pairs) / (float64(r.Elapsed) / float64(time.Millisecond))
}

// RemoteReuseRate reports the fraction of block touches that crossed
// clusters — the locality effect Table 2's analysis attributes the
// cohort speedup to.
func (r Result) RemoteReuseRate() float64 {
	total := r.Alloc.Mallocs + r.Alloc.Frees
	if total == 0 {
		return 0
	}
	return float64(r.Alloc.RemoteTouches) / float64(total)
}

type pairSlot struct {
	pairs uint64
	err   error
	_     numa.Pad
}

// Run measures the allocator under the given lock.
func Run(cfg Config, lock locks.Mutex) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	a, err := alloc.New(alloc.Config{
		Topo:       cfg.Topo,
		Lock:       lock,
		ArenaBytes: cfg.ArenaBytes,
	})
	if err != nil {
		return Result{}, err
	}
	slots := make([]pairSlot, cfg.Threads)
	elapsed := closedloop.Run(cfg.Topo, cfg.Threads, cfg.Duration, func(p *numa.Proc) func() bool {
		id := p.ID()
		sl := &slots[id]
		return func() bool {
			off, err := a.Malloc(p, cfg.BlockSize)
			if err != nil {
				sl.err = err
				return false
			}
			buf := a.Bytes(off, cfg.InitWords*8)
			for w := 0; w < cfg.InitWords; w++ {
				binary.LittleEndian.PutUint64(buf[w*8:], uint64(id)<<32|sl.pairs)
			}
			spin.WaitNs(cfg.DelayNs)
			if err := a.Free(p, off); err != nil {
				sl.err = err
				return false
			}
			spin.WaitNs(cfg.DelayNs)
			sl.pairs++
			return true
		}
	})
	res := Result{PerThread: make([]uint64, cfg.Threads), Elapsed: elapsed}
	for i := range slots {
		if slots[i].err != nil {
			return Result{}, fmt.Errorf("mmicro worker %d: %w", i, slots[i].err)
		}
		res.PerThread[i] = slots[i].pairs
		res.Pairs += slots[i].pairs
	}
	res.Alloc = a.Snapshot()
	return res, nil
}
