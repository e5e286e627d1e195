// Package kvstore is the memcached stand-in for the paper's Table 1
// experiment, grown into a sharded cache.
//
// Memcached keeps all key-value pairs in one hash table with LRU
// eviction, and mediates every get and set through a single "cache
// lock" — the contention bottleneck the paper targets by interposing
// different lock implementations under the pthread API. A Shard
// reproduces that structure in-process: a chained hash table, an
// intrusive recency list evicted by a CLOCK hand, and a single
// pluggable lock. Hot shared metadata — the recency list head,
// hash-table metadata, statistics and the item allocator — is charged
// through a per-shard cachesim domain, so lock algorithms that batch
// critical sections by cluster keep those lines local exactly as they
// would on the paper's machine.
// Expiry/TTL and the network protocol are omitted (DESIGN.md §2): the
// experiment exercises only the lock around table operations.
//
// A Store fronts N such shards and routes each operation by key hash
// alone, which is the structural fix the single cache lock cannot buy:
// no matter how good the lock, one lock instance caps throughput at one
// critical section at a time. Sharding multiplies that capacity by N.
// Routing never looks at the requester, so every thread of every
// cluster sees one keyspace and every shard lock sees traffic from
// every cluster; locality across clusters is the lock's job, as in the
// paper (DESIGN.md §4).
//
// A single-shard Store routes every key to its one shard and behaves
// exactly like the pre-sharding store.
//
// Beyond one-operation-per-acquisition, the store batches: the
// MGet/MSet/MDelete APIs group keys by shard and run each shard's
// group in critical sections of up to Config.MaxBatch operations, so
// N same-shard operations cost ceil(N/MaxBatch) acquisitions instead
// of N.
//
// Each shard has one exclusion seam, a locks.RWExecutor that every
// LockSource resolves to: every critical section is posted to it as a
// per-proc record (see csRecord), one kind per verb, a single-key Get,
// Set or Delete being a batch of one. Over a plain lock (FromMutex,
// FromRW) the executor brackets the record with one acquisition. Over
// a combining executor (FromExec) a combiner runs same-cluster batches
// — across requesting procs — under a single acquisition of the
// underlying lock. That is the flat-combining
// amortization the paper credits FC-MCS with (§4.1.3), applied to the
// store's own critical sections rather than to queue hand-offs.
//
// The cache lock itself is reader-writer shaped (locks.RWMutex): Sets
// and Deletes take exclusive mode and Gets take shared mode, so under a
// lock whose shared mode admits concurrent readers (an rw-* registry
// lock) Gets run together — the read-mostly scaling lever the cohort
// papers' reader-writer follow-up adds on top of cohorting. Exclusive
// locks slot in through locks.RWFromMutex, whose shared mode is the
// exclusive one, so their Gets take exactly one Lock each. Under
// either mode a hit only reads, apart from setting its item's CLOCK
// reference bit: recency work (linking, the hand's sweep) is the write
// path's. memcached does not relink on every hit either: 1.4 relinks a
// fetched item at most once per ITEM_UPDATE_INTERVAL (60 s), and 1.5's
// segmented LRU only marks it active.
// The two amortization machines compose on the read side: under a
// genuine reader-writer lock MGet answers each chunk of up to MaxBatch
// lookups under ONE shared acquisition and takes no exclusive one, so
// batched read-mostly traffic pays ceil(N/MaxBatch) RLocks that other
// clusters' readers don't even serialize against.
//
// A combining executor over a native RW lock (a comb-a-rw-* registry
// entry, or locks.NewRWCombiningAdaptive) combines the exclusive
// sections and runs each Get and MGet chunk it receives through
// ExecShared under one RLock of its own, so its read path is exactly
// the plain reader-writer lock's.
package kvstore

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/numa"
)

// Config parameterizes a Store.
type Config struct {
	// Topo sizes per-proc statistics and the metadata cache domains.
	Topo *numa.Topology
	// Locking is the single seam supplying each shard's exclusion
	// domain; build one with FromMutex, FromRW, FromExec or
	// FromRegistry. Required.
	Locking LockSource
	// MaxBatch bounds how many operations of a batch API call
	// (MGet/MSet/MDelete) run inside one critical section, capping
	// lock hold times: a shard group of N operations takes
	// ceil(N/MaxBatch) acquisitions instead of N. Default 64.
	// A single-key call is a batch of one: one critical section.
	MaxBatch int
	// Shards is the shard count. Default 1.
	Shards int
	// Buckets is the total hash table size, split across shards and
	// rounded up to a per-shard power of two. Default 1<<15.
	Buckets int
	// Capacity is the total maximum item count before eviction, split
	// evenly across shards. Default 1<<16. Eviction is CLOCK: a hit
	// sets its item's reference bit (no relink, in the spirit of
	// memcached's ITEM_UPDATE_INTERVAL) and the hand spares referenced
	// items once.
	Capacity int
	// Cache sets the metadata-line latencies (cachesim semantics).
	Cache cachesim.Config
	// ItemNs are the latencies charged for overwriting an item whose
	// last writer was the same / another cluster. Defaults 25/100 ns.
	ItemLocalNs, ItemRemoteNs int64
	// Placement, ValueMemory, IndexMemory and ArenaBytes are accepted
	// and ignored; see compat.go.
	Placement   Placement
	ValueMemory ValueMemory
	IndexMemory IndexMemory
	ArenaBytes  int
}

func (c *Config) setDefaults() error {
	if c.Topo == nil {
		return fmt.Errorf("kvstore: nil topology")
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Locking == nil {
		return fmt.Errorf("kvstore: nil Locking")
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.Buckets <= 0 {
		c.Buckets = 1 << 15
	}
	if c.Capacity <= 0 {
		c.Capacity = 1 << 16
	}
	if c.Cache == (cachesim.Config{}) {
		c.Cache = cachesim.DefaultConfig()
	}
	if c.ItemLocalNs == 0 && c.ItemRemoteNs == 0 {
		def := cachesim.DefaultConfig()
		c.ItemLocalNs, c.ItemRemoteNs = def.LocalNs, def.RemoteNs
	}
	return nil
}

// DefaultMaxBatch is the default bound on operations per batch-API
// critical section — long enough to amortize the acquisition, short
// enough that a batch never monopolizes a shard lock.
const DefaultMaxBatch = 64

// Stats is an aggregated view of store activity.
type Stats struct {
	Gets, Sets, Hits, Misses, Evictions uint64
	// MetaMisses counts simulated coherence misses on store metadata.
	MetaMisses uint64
}

// Add accumulates o into s; harnesses use it to aggregate shard and
// store snapshots.
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.Sets += o.Sets
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.MetaMisses += o.MetaMisses
}

// Store is the sharded memcached-like key-value cache.
type Store struct {
	shards []*Shard
	// routes holds each proc's batch-routing scratch, indexed by
	// p.ID(). A proc is used by one goroutine at a time (the numa.Proc
	// contract the shards' per-proc slots already rest on), so a batch
	// call owns its proc's entry for the duration of the call; the
	// buffers grow by doubling to cover the largest batch seen and are
	// then reused, so steady-state routing allocates nothing.
	routes []routeScratch
}

// routeScratch is one proc's routing workspace: the batch's key
// indices stably sorted by target shard. It holds indices only, never
// caller memory.
type routeScratch struct {
	order []int   // key indices; shard si's are order[start[si]:start[si+1]]
	start []int   // len(shards)+1 group boundaries into order
	shard []int32 // shard[i] = target shard of keys[i]
	_     numa.Pad
}

// New builds a store; it panics on invalid configuration (programmer
// error in harness setup).
func New(cfg Config) *Store {
	if err := cfg.setDefaults(); err != nil {
		panic(err)
	}
	perBuckets := ceilDiv(cfg.Buckets, cfg.Shards)
	// Round up to a power of two for mask indexing.
	n := 1
	for n < perBuckets {
		n <<= 1
	}
	perBuckets = n
	perCapacity := ceilDiv(cfg.Capacity, cfg.Shards)

	s := &Store{
		shards: make([]*Shard, cfg.Shards),
		routes: make([]routeScratch, cfg.Topo.MaxProcs()),
	}
	for i := range s.routes {
		s.routes[i].start = make([]int, cfg.Shards+1)
	}
	for i := range s.shards {
		sc := shardConfig{
			topo:       cfg.Topo,
			x:          cfg.Locking(),
			maxBatch:   cfg.MaxBatch,
			buckets:    perBuckets,
			capacity:   perCapacity,
			cache:      cfg.Cache,
			itemLocal:  cfg.ItemLocalNs,
			itemRemote: cfg.ItemRemoteNs,
		}
		s.shards[i] = newShard(sc)
	}
	return s
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// shardMix decorrelates shard routing from the shards' internal bucket
// hash (64-bit murmur3 finalizer).
func shardMix(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xFF51AFD7ED558CCD
	key ^= key >> 33
	return key
}

// shardIndex routes key to a shard index: a function of the key alone.
func (s *Store) shardIndex(key uint64) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(shardMix(key) % uint64(len(s.shards)))
}

// shardFor returns the shard that key routes to.
func (s *Store) shardFor(key uint64) *Shard {
	return s.shards[s.shardIndex(key)]
}

// one returns key's shard and p's slot there, key and buf filling the
// slot's batch of one.
func (s *Store) one(p *numa.Proc, key uint64, buf []byte) (*Shard, *opSlot) {
	sh := s.shardFor(key)
	sl := &sh.slots[p.ID()]
	sl.oneKey[0], sl.oneBuf[0] = key, buf
	return sh, sl
}

// Get looks up key in its shard, copying the value into dst
// (truncating if dst is short). It returns the copied length and
// whether the key was found. It is an MGet of one key, without the
// routing pass: one critical section through ExecShared.
func (s *Store) Get(p *numa.Proc, key uint64, dst []byte) (int, bool) {
	sh, sl := s.one(p, key, dst)
	sh.mget(p, sl.oneKey[:], nil, sl.oneBuf[:], sl.oneLen[:], sl.oneFound[:], oneIdx)
	sl.oneBuf[0] = nil
	return sl.oneLen[0], sl.oneFound[0]
}

// Set inserts or updates key with a copy of val in its shard, evicting
// that shard's clock victim if it is full: an MSet of one key.
func (s *Store) Set(p *numa.Proc, key uint64, val []byte) {
	sh, sl := s.one(p, key, val)
	sh.mset(p, sl.oneKey[:], nil, sl.oneBuf[:], oneIdx)
	sl.oneBuf[0] = nil
}

// Delete removes key from its shard, returning whether it was present:
// an MDelete of one key.
func (s *Store) Delete(p *numa.Proc, key uint64) bool {
	sh, sl := s.one(p, key, nil)
	return sh.mdelete(p, sl.oneKey[:], oneIdx, nil) == 1
}

// route partitions the indices of keys by target shard: a stable
// counting sort into p's routing scratch.
// Shard si's indices are order[start[si]:start[si+1]], in caller order
// — the order duplicate keys rely on to resolve last-wins — and every
// index lands in exactly one group, the routing-completeness the batch
// APIs rely on. A single-shard store gets the identity order. Both
// slices alias p's scratch and are valid until p's next batch call.
//
// Every batch call passes through here before it takes a shard lock,
// so this is also where the batch's index lines are warmed (see
// Shard.warmBucket).
func (s *Store) route(p *numa.Proc, keys []uint64) (order, start []int) {
	rs := &s.routes[p.ID()]
	if cap(rs.order) < len(keys) {
		// Doubling, so batches that creep upward reallocate O(log n) times.
		n := max(len(keys), 2*cap(rs.order))
		rs.order = make([]int, n)
		rs.shard = make([]int32, n)
	}
	order, shard, start := rs.order[:len(keys)], rs.shard[:len(keys)], rs.start
	clear(start)
	for i, k := range keys {
		si := s.shardIndex(k)
		shard[i] = int32(si)
		start[si]++
		// Start this key's index misses now, while no lock is held: the
		// batch's load chains are independent, so they overlap.
		s.shards[si].warmBucket(k)
	}
	// Counts become group ends; each group then fills from its end
	// backwards while the keys are walked in reverse, which keeps caller
	// order and leaves every start[si] on its group's first slot.
	for si := 1; si < len(start); si++ {
		start[si] += start[si-1]
	}
	for i := len(keys) - 1; i >= 0; i-- {
		si := shard[i]
		start[si]--
		order[start[si]] = i
	}
	// Second warm step, with every key's bucket load already in flight.
	for i, k := range keys {
		s.shards[shard[i]].warmItem(k)
	}
	return order, start
}

// MGet looks up every key, copying values into the matching dsts
// buffer (dsts may be nil to probe without copying) and reporting
// per-key copy lengths and presence in lens and found. Keys are
// grouped by shard and each shard's group runs in critical sections
// of at most Config.MaxBatch lookups — one lock acquisition (or one
// combined section, under a comb-a-* executor) answers a whole chunk,
// instead of one per key as repeated Get calls would pay. Results are
// written at the same index as the key; every key is answered exactly
// once. Per-key semantics match Get under the same lock: a hit sets
// its item's reference bit and nothing else; under a genuine
// reader-writer lock each chunk runs in SHARED mode — one RLock answers
// the whole chunk, concurrent with other readers' chunks — and the
// group takes no exclusive acquisition.
func (s *Store) MGet(p *numa.Proc, keys []uint64, dsts [][]byte, lens []int, found []bool) {
	s.mget(p, keys, nil, dsts, lens, found)
}

// MGetNamed is MGet for keys that hash names: key i hits only if it
// was stored by MSetNamed under names[i]. Two names whose hashes
// collide therefore miss on each other's items instead of reading
// them.
func (s *Store) MGetNamed(p *numa.Proc, keys []uint64, names, dsts [][]byte, lens []int, found []bool) {
	if len(names) != len(keys) {
		panic(fmt.Sprintf("kvstore: MGetNamed with %d names for %d keys", len(names), len(keys)))
	}
	s.mget(p, keys, names, dsts, lens, found)
}

func (s *Store) mget(p *numa.Proc, keys []uint64, names, dsts [][]byte, lens []int, found []bool) {
	if dsts != nil && len(dsts) != len(keys) {
		panic(fmt.Sprintf("kvstore: MGet with %d dsts for %d keys", len(dsts), len(keys)))
	}
	if len(lens) != len(keys) || len(found) != len(keys) {
		panic(fmt.Sprintf("kvstore: MGet with %d lens / %d found for %d keys", len(lens), len(found), len(keys)))
	}
	order, start := s.route(p, keys)
	for si, sh := range s.shards {
		if idx := order[start[si]:start[si+1]]; len(idx) > 0 {
			sh.mget(p, keys, names, dsts, lens, found, idx)
		}
	}
}

// MSet inserts or updates every key with a copy of the matching vals
// entry, grouping by shard exactly as MGet does: each shard's group
// runs in critical sections of at most Config.MaxBatch sets, so N
// same-shard keys cost ceil(N/MaxBatch) acquisitions instead of N.
// Caller order is preserved within a shard, so duplicate keys resolve
// last-wins like sequential Sets; keys on different shards apply in
// shard order, indistinguishable to readers since cross-shard Sets
// were never atomic to begin with.
func (s *Store) MSet(p *numa.Proc, keys []uint64, vals [][]byte) {
	s.mset(p, keys, nil, vals)
}

// maxNameBytes bounds each name MSetNamed stores: the item keeps its
// length in a byte.
const maxNameBytes = 255

// MSetNamed is MSet that also stores names[i] with key i's value, in
// the item's one buffer, for MGetNamed to match. A name is at most
// 255 bytes. Get, MGet and the unnamed sets see only the value.
func (s *Store) MSetNamed(p *numa.Proc, keys []uint64, names, vals [][]byte) {
	if len(names) != len(keys) {
		panic(fmt.Sprintf("kvstore: MSetNamed with %d names for %d keys", len(names), len(keys)))
	}
	for _, n := range names {
		if len(n) > maxNameBytes {
			panic(fmt.Sprintf("kvstore: MSetNamed with a %d-byte name", len(n)))
		}
	}
	s.mset(p, keys, names, vals)
}

func (s *Store) mset(p *numa.Proc, keys []uint64, names, vals [][]byte) {
	if len(vals) != len(keys) {
		panic(fmt.Sprintf("kvstore: MSet with %d vals for %d keys", len(vals), len(keys)))
	}
	order, start := s.route(p, keys)
	for si, sh := range s.shards {
		if idx := order[start[si]:start[si+1]]; len(idx) > 0 {
			sh.mset(p, keys, names, vals, idx)
		}
	}
}

// MDelete removes every key, batched like MSet, and reports how many
// were present.
func (s *Store) MDelete(p *numa.Proc, keys []uint64) int {
	return s.mdelete(p, keys, nil)
}

// MDeleteEach removes every key like MDelete and additionally reports
// per-key presence in found (written at the same index as the key) —
// the answer a wire protocol needs to say DELETED or NOT_FOUND per
// operation while still paying ceil(N/MaxBatch) acquisitions.
func (s *Store) MDeleteEach(p *numa.Proc, keys []uint64, found []bool) int {
	if len(found) != len(keys) {
		panic(fmt.Sprintf("kvstore: MDeleteEach with %d found for %d keys", len(found), len(keys)))
	}
	return s.mdelete(p, keys, found)
}

func (s *Store) mdelete(p *numa.Proc, keys []uint64, found []bool) int {
	order, start := s.route(p, keys)
	n := 0
	for si, sh := range s.shards {
		if idx := order[start[si]:start[si+1]]; len(idx) > 0 {
			n += sh.mdelete(p, keys, idx, found)
		}
	}
	return n
}

// Len reports the item count summed over all shards (takes each shard
// lock in turn).
func (s *Store) Len(p *numa.Proc) int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len(p)
	}
	return n
}

// Capacity reports the total item capacity summed over shards.
func (s *Store) Capacity() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Capacity()
	}
	return n
}

// MaxBatch reports the per-critical-section operation bound the batch
// APIs honor (Config.MaxBatch after defaulting). Front-ends align
// their flush chunks to it so a flush of N ops costs exactly
// ceil(N/MaxBatch) acquisitions.
func (s *Store) MaxBatch() int { return s.shards[0].maxBatch }

// Snapshot aggregates statistics across all shards; call while workers
// are quiescent.
func (s *Store) Snapshot() Stats {
	var st Stats
	for _, sh := range s.shards {
		st.Add(sh.Snapshot())
	}
	return st
}

// checkLRU validates every shard's list integrity; tests use it.
func (s *Store) checkLRU() error {
	for i, sh := range s.shards {
		if err := sh.checkLRU(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
