package kvstore

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"repro/internal/cachesim"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/spin"
)

// Metadata line indices in each shard's cachesim domain.
const (
	lineLRU   = 0 // recency list head/tail and clock hand, touched by every set
	lineHash  = 1 // hash table metadata
	lineStats = 2 // global statistics counters
	lineAlloc = 3 // item allocator free list
	numLines  = 4
)

// item is one cache entry: hash chain link, intrusive recency-list
// links, the last-writing cluster (for the locality charge), the clock
// reference bit, and one GC-managed buffer the item keeps across
// recycling. The buffer holds the name the item was stored under
// (nameLen bytes, none for an unnamed set) followed by the value. The
// fields fill exactly one 64-byte line.
type item struct {
	key     atomic.Uint64 // written once per insert; see Shard.warmItem
	hnext   *item
	prev    *item // toward the head (newer)
	next    *item // toward the tail (older)
	owner   uint16
	nameLen uint8
	// ref is the clock's reference bit, the one item word written
	// outside an exclusive section: a hit sets it under either bracket,
	// so concurrent shared readers store it. Only the hand clears it,
	// under exclusive mode.
	ref   atomic.Uint32
	value []byte
}

// opSlot is per-proc state; each proc writes only its own slot.
// Shared-mode Gets rely on exactly this layout: every counter is
// written only by its owning proc, outside the lock, so concurrent
// readers never contend on statistics.
type opSlot struct {
	gets      uint64
	sets      uint64
	hits      uint64
	misses    uint64
	evictions uint64
	// cs is this proc's critical-section record (see csRecord).
	cs csRecord
	// oneKey..oneFound are this proc's batch of one: Store.Get, Set and
	// Delete pass their key to the batch verbs through them, allocating
	// nothing. oneBuf is cleared after each call, so an idle shard pins
	// no caller buffer.
	oneKey   [1]uint64
	oneBuf   [1][]byte
	oneLen   [1]int
	oneFound [1]bool
	_        numa.Pad
}

// oneIdx indexes a batch of one; nobody writes it.
var oneIdx = []int{0}

// csKind names the critical section a csRecord runs.
type csKind uint8

const (
	csMGet    csKind = iota // chunk of keys/bufs -> lens, found; through ExecShared
	csMSet                  // chunk of keys/bufs
	csMDelete               // chunk of keys -> n += present, found (optional)
	csLen                   // -> n
)

// csRecord is one proc's critical section, spelled out as data: the
// operation kind, its arguments and its results. There is one kind
// per verb, over a chunk of keys (a single-key call is a batch of
// one), and Len. Every shard operation arms its proc's record and
// posts fn to the shard's executor, which runs it in place between its
// lock's acquire and release, or hands it to a combiner on another
// goroutine. fn is the record's run method, bound once at shard
// construction, so posting allocates nothing (a closure literal per
// call would escape through the locks.Executor interface and cost an
// allocation per critical section).
//
// Ownership: the record lives in its proc's opSlot, and a proc is used
// by one goroutine at a time (the numa.Proc contract), so at most one
// critical section per record is ever in flight. The owner writes the
// arguments before posting and reads the results after Exec returns;
// the executor's publication protocol (posted/done atomics) orders
// both against the combiner's accesses. done clears every reference
// to caller memory, so an idle shard pins nobody's buffers.
type csRecord struct {
	fn    func()
	s     *Shard
	p     *numa.Proc
	kind  csKind
	keys  []uint64 // the call's keys
	bufs  [][]byte // csMGet: destinations (nil = probe); csMSet: values
	names [][]byte // csMGet: names a hit must match; csMSet: names to store (nil = unnamed)
	lens  []int
	found []bool
	chunk []int // the indices into keys this section covers
	n     int
}

// run executes the armed critical section. The caller — the owning
// proc or an executor's combiner — holds the shard's exclusion in the
// mode the kind requires.
func (r *csRecord) run() {
	s, p := r.s, r.p
	switch r.kind {
	case csMGet:
		for _, i := range r.chunk {
			r.lens[i], r.found[i] = s.lookup(r.keys[i], r.name(i), r.dst(i))
		}
	case csMSet:
		for _, i := range r.chunk {
			s.applySet(p, r.keys[i], r.name(i), r.bufs[i])
		}
	case csMDelete:
		for _, i := range r.chunk {
			ok := s.applyDelete(p, r.keys[i])
			if ok {
				r.n++
			}
			if r.found != nil {
				r.found[i] = ok
			}
		}
	case csLen:
		r.n = s.count
	}
}

// dst is key i's destination buffer; nil when the call only probes.
func (r *csRecord) dst(i int) []byte {
	if r.bufs == nil {
		return nil
	}
	return r.bufs[i]
}

// name is key i's name; nil when the call is unnamed.
func (r *csRecord) name(i int) []byte {
	if r.names == nil {
		return nil
	}
	return r.names[i]
}

// done drops the record's references to caller memory.
func (r *csRecord) done() {
	r.keys, r.bufs, r.names, r.lens, r.found, r.chunk = nil, nil, nil, nil, nil, nil
}

// arm returns p's record, reset for a critical section of kind k.
func (s *Shard) arm(p *numa.Proc, k csKind) *csRecord {
	r := &s.slots[p.ID()].cs
	r.p, r.kind, r.n = p, k, 0
	return r
}

// post runs r over the keys idx indexes in critical sections of at
// most maxBatch keys each: lookups through ExecShared, writes through
// Exec. It then drops r's references to caller memory.
func (s *Shard) post(p *numa.Proc, r *csRecord, idx []int) {
	for start := 0; start < len(idx); start += s.maxBatch {
		r.chunk = idx[start:min(start+s.maxBatch, len(idx))]
		if r.kind == csMGet {
			s.x.ExecShared(p, r.fn)
		} else {
			s.x.Exec(p, r.fn)
		}
	}
	r.done()
}

// shardConfig carries the per-shard slice of a Store's Config, already
// validated and normalized (buckets a power of two, capacity >= 1,
// maxBatch >= 1).
type shardConfig struct {
	topo       *numa.Topology
	x          locks.RWExecutor
	maxBatch   int
	buckets    int
	capacity   int
	cache      cachesim.Config
	itemLocal  int64
	itemRemote int64
}

// Shard is one independently locked slice of the store: a chained hash
// table, an intrusive recency list swept by a clock hand, per-proc
// statistics and a private cachesim domain for its hot metadata. It is
// the memcached structure of the paper's Table 1 experiment; the
// pre-sharding store was a single Shard behind one cache lock.
type Shard struct {
	// x is the shard's one exclusion seam: every critical section is
	// posted to it as its proc's csRecord, reads through ExecShared
	// (whose mode decides whether they run together) and writes through
	// Exec. Over a plain lock x brackets the section with the lock's
	// acquire and release; a combining executor batches same-cluster
	// exclusive sections under one acquisition of its underlying lock.
	x locks.RWExecutor
	// maxBatch bounds how many batched operations (MGet/MSet/MDelete)
	// run inside one critical section.
	maxBatch   int
	mask       uint64
	buckets    []atomic.Pointer[item] // chain heads; atomic for the lock-free warm pass (see warmBucket)
	head       *item                  // where the hand wraps from
	tail       *item                  // where the hand wraps to
	hand       *item                  // next eviction candidate; nil = the tail
	count      int
	capacity   int
	free       *item // recycled items (chained via hnext)
	domain     *cachesim.Domain
	slots      []opSlot
	itemLocal  int64
	itemRemote int64
}

func newShard(cfg shardConfig) *Shard {
	s := &Shard{
		x:          cfg.x,
		maxBatch:   cfg.maxBatch,
		mask:       uint64(cfg.buckets - 1),
		buckets:    make([]atomic.Pointer[item], cfg.buckets),
		capacity:   cfg.capacity,
		domain:     cachesim.NewDomain(cfg.topo, numLines, cfg.cache),
		slots:      make([]opSlot, cfg.topo.MaxProcs()),
		itemLocal:  cfg.itemLocal,
		itemRemote: cfg.itemRemote,
	}
	for i := range s.slots {
		r := &s.slots[i].cs
		r.s, r.fn = s, r.run
	}
	return s
}

// hash is Fibonacci hashing; keys are already integers in this model.
func (s *Shard) hash(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 16 & s.mask
}

func (s *Shard) find(key uint64) *item {
	for it := s.buckets[s.hash(key)].Load(); it != nil; it = it.hnext {
		if it.key.Load() == key {
			return it
		}
	}
	return nil
}

// warmBucket and warmItem are the two steps of the batch warm pass:
// Store.route runs them for every key of a batch call before any shard
// lock is taken, and both discard what they load. warmBucket loads the
// key's bucket head word; warmItem, run once every key's bucket load is
// in flight, loads the key word of that head item. Those are the two
// dependent lines a lookup misses on, and with no lock (no barrier)
// between them a batch's misses overlap one another instead of queueing
// one by one inside the critical sections that follow, which then find
// their index lines in cache.
//
// Running unlocked is legal only because of the publication rule
// (DESIGN.md §4): bucket heads and item keys are atomics, stored inside
// exclusive sections, and the warm pass loads nothing else — never
// hnext, the list links, owner, ref, value bytes, statistics or cachesim
// state. A head that is unlinked, recycled or re-keyed between the two
// loads is harmless: the item's memory stays valid, the result is
// thrown away, and the locked lookup re-reads everything.
func (s *Shard) warmBucket(key uint64) {
	s.buckets[s.hash(key)].Load()
}

func (s *Shard) warmItem(key uint64) {
	if it := s.buckets[s.hash(key)].Load(); it != nil {
		it.key.Load()
	}
}

// touchItem charges the item-locality latency and migrates ownership,
// the per-item analogue of cachesim. Only an overwrite pays it: a read
// leaves the item's line, and its ownership, where they are. Must hold
// exclusive mode.
func (s *Shard) touchItem(p *numa.Proc, it *item) {
	c := uint16(p.Cluster())
	if it.owner != c {
		it.owner = c
		spin.WaitNs(s.itemRemote)
	} else {
		spin.WaitNs(s.itemLocal)
	}
}

// Recency is CLOCK (second chance). A hit only sets its item's
// reference bit (item.reference); the write path does the rest. The
// list is a circle that the hand walks from the tail toward the head
// (prev links), wrapping to the tail when it passes the head. An
// eviction clears the bit of each referenced item the hand passes,
// leaving the item where it is, and takes the first unreferenced one.

// clockScan bounds the referenced items one eviction passes before it
// takes the item under the hand anyway, so an insert does bounded work
// however many items were hit. memcached's lru_pull_tail likewise
// tries only five items.
const clockScan = 5

// reference sets its reference bit. It runs under either bracket, so
// concurrent shared readers may race to set the bit; each stores only
// when the bit is clear, so a hot item's line is written once per
// pass of the hand, not once per hit.
func (it *item) reference() {
	if it.ref.Load() == 0 {
		it.ref.Store(1)
	}
}

// link puts a new item just behind the hand, the last place the hand
// reaches — at the head when the hand is at the tail — so a fresh item
// waits a full revolution before it is a candidate, as in classic
// CLOCK. After an eviction that is the victim's old place. Must hold
// exclusive mode.
func (s *Shard) link(it *item) {
	newer, older := s.hand, s.head
	if newer != nil {
		older = newer.next
	}
	it.prev, it.next = newer, older
	if newer != nil {
		newer.next = it
	} else {
		s.head = it
	}
	if older != nil {
		older.prev = it
	} else {
		s.tail = it
	}
}

// evict retires the hand's victim: the first unreferenced item from the
// hand on, or the item under the hand once clockScan referenced items
// have had their bits cleared. The shard must hold an item. Must hold
// exclusive mode.
func (s *Shard) evict(p *numa.Proc) {
	it := s.hand
	for passed := 0; ; passed++ {
		if it == nil {
			it = s.tail
		}
		if passed == clockScan || it.ref.Load() == 0 {
			break
		}
		it.ref.Store(0)
		it = it.prev
	}
	s.hand = it // retire moves the hand on
	s.retire(it)
	s.domain.Access(p, lineHash, 1)
	s.domain.Access(p, lineAlloc, 2)
	s.slots[p.ID()].evictions++
}

// unlink removes it from both the hash chain and the list, moving the
// hand on toward the head if it was on it. Must hold exclusive mode.
func (s *Shard) unlink(it *item) {
	b := &s.buckets[s.hash(it.key.Load())]
	if head := b.Load(); head == it {
		b.Store(it.hnext)
	} else {
		for cur := head; cur != nil; cur = cur.hnext {
			if cur.hnext == it {
				cur.hnext = it.hnext
				break
			}
		}
	}
	if it.prev != nil {
		it.prev.next = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	}
	if s.head == it {
		s.head = it.next
	}
	if s.tail == it {
		s.tail = it.prev
	}
	if s.hand == it {
		s.hand = it.prev
	}
	it.prev, it.next, it.hnext = nil, nil, nil
}

// retire unlinks it on eviction or delete and pushes it on the free
// list, dropping its value (the buffer stays for the next insert to
// reuse) and its reference bit. Must hold exclusive mode.
func (s *Shard) retire(it *item) {
	s.unlink(it)
	s.count--
	it.value = it.value[:0]
	if it.ref.Load() != 0 {
		it.ref.Store(0)
	}
	it.hnext = s.free
	s.free = it
}

// lookup is a get's critical section, one body whether the lock's
// shared mode shares or excludes: hash walk, name check, reference bit,
// value copy. It writes only the hit item's bit, so readers on
// different clusters share every other line; memcached relinks a
// fetched item at most once per ITEM_UPDATE_INTERVAL (60 s). A non-nil
// name must equal the one the item was stored under, or the lookup
// misses. Statistics stay outside.
func (s *Shard) lookup(key uint64, name, dst []byte) (int, bool) {
	// The hash-bucket walk is read-only: read-shared lines replicate
	// across caches without coherence misses, so no charge applies.
	it := s.find(key)
	if it == nil || name != nil && !bytes.Equal(it.value[:it.nameLen], name) {
		return 0, false
	}
	it.reference()
	return copy(dst, it.value[it.nameLen:]), true
}

// applySet is a set's critical section; callers hold the shard's
// exclusion. An insert into a full shard evicts before it links, so
// the new item can never be its own victim and takes the victim's
// place, behind the hand. An overwrite stays where it is and sets the
// reference bit. The per-proc
// sets counter stays outside; evictions are charged inside (they are
// part of the guarded structural change).
func (s *Shard) applySet(p *numa.Proc, key uint64, name, val []byte) {
	it := s.find(key)
	if it == nil {
		// Structural insert: writes the bucket chain and allocator.
		s.domain.Access(p, lineHash, 1)
		s.domain.Access(p, lineAlloc, 2)
		if s.free != nil {
			it = s.free
			s.free = it.hnext
			it.hnext = nil
		} else {
			it = &item{}
		}
		if s.count >= s.capacity {
			s.evict(p) // the victim waits on the free list for the next insert
		}
		it.key.Store(key)
		b := &s.buckets[s.hash(key)]
		it.hnext = b.Load()
		b.Store(it)
		s.link(it)
		s.count++
		it.owner = uint16(p.Cluster())
	} else {
		s.touchItem(p, it)
		it.reference()
	}
	it.setValue(name, val)
	// Sets charge the recency line and mutate the global statistics
	// counters under the cache lock, as memcached does: the batchable
	// portion of a set's critical section, since runs of same-cluster
	// sets keep these lines local.
	s.domain.Access(p, lineLRU, 2)
	s.domain.Access(p, lineStats, 1)
}

// applyDelete is a delete's critical section; callers hold the
// shard's exclusion.
func (s *Shard) applyDelete(p *numa.Proc, key uint64) bool {
	it := s.find(key)
	if it == nil {
		return false
	}
	s.domain.Access(p, lineHash, 1)
	s.retire(it)
	s.domain.Access(p, lineAlloc, 2)
	return true
}

// setValue stores copies of name and val in it's buffer: grow the
// GC-managed buffer when too small, reslice and copy. Callers hold the
// shard's exclusion.
func (it *item) setValue(name, val []byte) {
	n := len(name) + len(val)
	if cap(it.value) < n {
		it.value = make([]byte, n)
	}
	it.value = it.value[:n]
	it.nameLen = uint8(copy(it.value, name))
	copy(it.value[it.nameLen:], val)
}

// mget answers the group's lookups (idx indexes keys) in critical
// sections of at most maxBatch lookups each, each one ExecShared. dsts
// may be nil to probe without copying, names nil to hit whatever name a
// key was stored under; lens and found are written at the same indices
// as keys. Where the lock's shared mode genuinely shares, a group of N
// lookups costs ceil(N/maxBatch) RLocks, concurrent with other
// clusters' readers, and no exclusive acquisition. Statistics stay
// per-proc, outside the lock.
func (s *Shard) mget(p *numa.Proc, keys []uint64, names, dsts [][]byte, lens []int, found []bool, idx []int) {
	r := s.arm(p, csMGet)
	r.keys, r.names, r.bufs, r.lens, r.found = keys, names, dsts, lens, found
	s.post(p, r, idx)
	slot := &s.slots[p.ID()]
	slot.gets += uint64(len(idx))
	for _, i := range idx {
		if found[i] {
			slot.hits++
		} else {
			slot.misses++
		}
	}
}

// mset applies the group's sets (idx indexes keys/vals) in critical
// sections of at most maxBatch operations each, preserving the
// caller's order within the group — duplicate keys resolve last-wins,
// exactly as the sequential calls would. names, when non-nil, are
// stored beside the values.
func (s *Shard) mset(p *numa.Proc, keys []uint64, names, vals [][]byte, idx []int) {
	r := s.arm(p, csMSet)
	r.keys, r.names, r.bufs = keys, names, vals
	s.post(p, r, idx)
	s.slots[p.ID()].sets += uint64(len(idx))
}

// mdelete removes the group's keys in critical sections of at most
// maxBatch operations each, returning how many were present. When
// found is non-nil, per-key presence is written at the same index as
// the key (the per-op answer a wire protocol's DELETED/NOT_FOUND
// responses need).
func (s *Shard) mdelete(p *numa.Proc, keys []uint64, idx []int, found []bool) int {
	r := s.arm(p, csMDelete)
	r.keys, r.found = keys, found
	s.post(p, r, idx)
	return r.n
}

// Len reports the current item count (one critical section).
func (s *Shard) Len(p *numa.Proc) int {
	r := s.arm(p, csLen)
	s.x.Exec(p, r.fn)
	return r.n
}

// Capacity reports the shard's item capacity.
func (s *Shard) Capacity() int { return s.capacity }

// Snapshot aggregates the shard's statistics; call while workers are
// quiescent.
func (s *Shard) Snapshot() Stats {
	var st Stats
	for i := range s.slots {
		sl := &s.slots[i]
		st.Gets += sl.gets
		st.Sets += sl.sets
		st.Hits += sl.hits
		st.Misses += sl.misses
		st.Evictions += sl.evictions
	}
	st.MetaMisses = s.domain.Snapshot().Misses
	return st
}

// checkLRU validates list integrity, and that the hand is nil or on
// the list; tests use it.
func (s *Shard) checkLRU() error {
	seen := 0
	handOn := s.hand == nil
	var prev *item
	for it := s.head; it != nil; it = it.next {
		handOn = handOn || it == s.hand
		if it.prev != prev {
			return fmt.Errorf("kvstore: broken prev link at %d", it.key.Load())
		}
		prev = it
		seen++
		if seen > s.count {
			return fmt.Errorf("kvstore: LRU longer than count %d", s.count)
		}
	}
	if s.tail != prev {
		return fmt.Errorf("kvstore: tail mismatch")
	}
	if seen != s.count {
		return fmt.Errorf("kvstore: LRU has %d items, count %d", seen, s.count)
	}
	if !handOn {
		return fmt.Errorf("kvstore: clock hand off the list")
	}
	return nil
}
