// Package kvload is the memaslap stand-in: a closed-loop load
// generator issuing configurable get/set mixes against a kvstore.Store
// (paper §4.2). Each worker plays one memcached server thread handling
// one outstanding request at a time: pick a key, perform the
// operation, then do the request's non-locked work (parsing, response
// assembly) emulated by a calibrated busy-wait plus a checksum over
// the value bytes.
package kvload

import (
	"fmt"
	"time"

	"repro/internal/closedloop"
	"repro/internal/kvstore"
	"repro/internal/numa"
	"repro/internal/spin"
)

// Config describes one load run.
type Config struct {
	Topo *numa.Topology
	// Threads is the number of server workers (paper: 1..128).
	Threads int
	// Duration is the measurement window.
	Duration time.Duration
	// ReadFraction is the share of get operations (paper: 0.9/0.5/0.1),
	// drawn per mille, so read-mostly mixes such as 0.999 are
	// expressible.
	ReadFraction float64
	// Keyspace is the number of distinct keys (pre-populated).
	Keyspace uint64
	// ValueSize is the value payload in bytes.
	ValueSize int
	// ThinkNs is the per-request non-locked work, busy-waited.
	ThinkNs int64
	// BatchSize groups each worker's operations into multi-key
	// MGet/MSet calls of this size — the batched pipeline: the store
	// runs each shard's portion of a batch in critical sections of up
	// to its MaxBatch, amortizing lock acquisitions across operations
	// (a pipelining client driving memcached's multi-get). 0 or 1
	// issues a batch of one: each operation is an MGet or MSet of its
	// one key, one critical section, as a Get or Set would be.
	BatchSize int
}

// DefaultConfig mirrors the paper's memcached setup at benchmark
// scale: 100k keys, 128-byte values, and ~8 µs of request handling
// outside the cache lock (protocol parsing and response assembly in
// real memcached), sized so the non-locked:locked ratio — which fixes
// the scalability plateau — matches the paper's ~4.5-5x.
func DefaultConfig(topo *numa.Topology, threads int, readFraction float64) Config {
	return Config{
		Topo:         topo,
		Threads:      threads,
		Duration:     300 * time.Millisecond,
		ReadFraction: readFraction,
		Keyspace:     100_000,
		ValueSize:    128,
		ThinkNs:      8000,
	}
}

func (c *Config) validate() error {
	if err := closedloop.Check(c.Topo, c.Threads, c.Duration); err != nil {
		return fmt.Errorf("kvload: %w", err)
	}
	if !(c.ReadFraction >= 0 && c.ReadFraction <= 1) { // inverted to reject NaN
		return fmt.Errorf("kvload: read fraction %v outside [0,1]", c.ReadFraction)
	}
	if c.Keyspace == 0 {
		return fmt.Errorf("kvload: empty keyspace")
	}
	if c.ValueSize <= 0 {
		return fmt.Errorf("kvload: non-positive value size")
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("kvload: negative batch size %d", c.BatchSize)
	}
	return nil
}

// Result aggregates a run.
type Result struct {
	Ops       uint64
	Gets      uint64
	Sets      uint64
	PerThread []uint64
	Elapsed   time.Duration
	Store     kvstore.Stats
}

// Throughput reports operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Populate pre-fills the store with every key from p, so the measured
// phase sees memcached's steady state (high hit rate).
func Populate(s *kvstore.Store, p *numa.Proc, keyspace uint64, valueSize int) {
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte(i)
	}
	for k := uint64(0); k < keyspace; k++ {
		s.Set(p, k, val)
	}
}

type loadSlot struct {
	ops  uint64
	gets uint64
	sets uint64
	_    numa.Pad
}

// newBatchedStep builds one worker's request loop: each round draws
// BatchSize keys (one when it is 0), splits them by the get/set mix,
// and issues one MGet and one MSet — the store amortizes lock
// acquisitions across each shard's group. The per-request non-locked
// work (think time) is still paid once per operation, busy-waited in
// one stretch per batch, as a pipelining server would interleave
// parsing with the batched cache pass.
func newBatchedStep(cfg *Config, store *kvstore.Store, p *numa.Proc, sl *loadSlot, getMille int64) func() bool {
	b := max(cfg.BatchSize, 1)
	stride := cfg.ValueSize
	readKeys := make([]uint64, 0, b)
	writeKeys := make([]uint64, 0, b)
	vals := make([][]byte, 0, b)
	valBuf := make([]byte, b*stride)
	dsts := make([][]byte, b)
	dstBuf := make([]byte, b*stride)
	for i := range dsts {
		dsts[i] = dstBuf[i*stride : (i+1)*stride]
	}
	lens := make([]int, b)
	found := make([]bool, b)
	var sink byte
	return func() bool {
		readKeys, writeKeys, vals = readKeys[:0], writeKeys[:0], vals[:0]
		var think int64
		for i := 0; i < b; i++ {
			key := p.Rand() % cfg.Keyspace
			if p.RandN(1000) < getMille {
				readKeys = append(readKeys, key)
			} else {
				v := valBuf[len(vals)*stride : (len(vals)+1)*stride]
				v[0] = byte(key)
				v[stride-1] = sink
				writeKeys = append(writeKeys, key)
				vals = append(vals, v)
			}
			if cfg.ThinkNs > 0 {
				think += cfg.ThinkNs/2 + p.RandN(cfg.ThinkNs/2+1)
			}
		}
		if len(readKeys) > 0 {
			store.MGet(p, readKeys, dsts[:len(readKeys)], lens[:len(readKeys)], found[:len(readKeys)])
			for i := range readKeys {
				if found[i] {
					// Response assembly: checksum the payload.
					for _, c := range dsts[i][:lens[i]] {
						sink ^= c
					}
				}
			}
			sl.gets += uint64(len(readKeys))
		}
		if len(writeKeys) > 0 {
			store.MSet(p, writeKeys, vals)
			sl.sets += uint64(len(writeKeys))
		}
		spin.WaitNs(think)
		sl.ops += uint64(b)
		return true
	}
}

// Run drives the store with cfg.Threads closed-loop workers.
func Run(cfg Config, store *kvstore.Store) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	getMille := int64(cfg.ReadFraction*1000 + 0.5)
	slots := make([]loadSlot, cfg.Threads)
	elapsed := closedloop.Run(cfg.Topo, cfg.Threads, cfg.Duration, func(p *numa.Proc) func() bool {
		return newBatchedStep(&cfg, store, p, &slots[p.ID()], getMille)
	})
	res := Result{PerThread: make([]uint64, cfg.Threads), Elapsed: elapsed}
	for i := range slots {
		res.PerThread[i] = slots[i].ops
		res.Ops += slots[i].ops
		res.Gets += slots[i].gets
		res.Sets += slots[i].sets
	}
	res.Store = store.Snapshot()
	return res, nil
}
