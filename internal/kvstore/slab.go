package kvstore

import (
	"fmt"
	"sync/atomic"

	"repro/internal/numa"
	"repro/internal/spin"
)

// Compact index memory (Config.IndexMemory: compact) re-homes a
// shard's entire metadata — items, hash chains, LRU links, free list —
// in chunked pointer-free slabs indexed by uint32. The pointer layout
// makes every item an individual GC allocation holding three *item
// links, so a 10M-key store leaves tens of millions of pointers for
// the collector to trace and GC mark cost scales with key count. Here
// the same structure is a handful of large allocations whose element
// type contains no pointers at all: the runtime allocates such spans
// noscan, so the collector's mark phase skips them entirely and scan
// cost becomes O(shards + chunks), independent of how many keys are
// live. Value bytes stay wherever ValueMemory puts them (arena blocks
// referenced by offset, or a lazily allocated heap side table — the
// one place a GC pointer per item survives, and only for values that
// actually live on the heap).
//
// Index-link invariants:
//
//   - nilIdx (0) is the nil index. Slab slot 0 is reserved at
//     construction — the allocation cursor starts at 1 — so 0 can never
//     name a live item, exactly as arena offset 0 can never name a
//     value block (the 8-byte header precedes every payload). No
//     separate validity flag is needed on any link.
//   - Slab indices are stable for the life of the shard: growth
//     publishes one more fixed-size chunk and never moves existing
//     chunks, so links never need rewriting. (A flat append-grown
//     []citem would invalidate interior pointers held across an append
//     and copy the whole table under the shard lock at each doubling;
//     chunking bounds the growth step to one chunk allocation.)
//   - The chunk table itself never grows: a shard holds at most
//     capacity+1 items (the insert that trips eviction), so its length
//     is fixed at construction and each entry is written once, nil to
//     chunk, by an atomic store. That makes the table an immutable
//     snapshot any goroutine may index — the unlocked warm pass walks
//     bucket word -> chunk entry -> item key through the same at() the
//     critical sections use.
//   - Free slots are chained through hnext (the hash link, dead while
//     an item is free), head of list in compactShard.free — the same
//     recycling discipline as the pointer layout's free list, so the
//     two modes pop recycled slots in identical order.
type citem struct {
	key   atomic.Uint64
	hnext uint32 // hash chain link; free-list link while recycled
	prev  uint32 // LRU toward MRU
	next  uint32 // LRU toward LRU victim
	owner int32  // last-touching cluster (item locality charge)
	off   uint32 // arena block payload offset; 0 = not arena-backed
	vlen  uint32 // stored value length in bytes
}

// Slab growth policy: fixed chunks of slabChunkSize items, appended on
// demand. 1<<13 items × 32 bytes = 256 KiB per chunk — big enough that
// a million-key shard is ~128 mostly-noscan allocations, small enough
// that the growth step inside a critical section is one modest
// allocation, not a multi-megabyte copy.
const (
	slabChunkShift = 13
	slabChunkSize  = 1 << slabChunkShift
	slabChunkMask  = slabChunkSize - 1
)

// nilIdx is the nil slab index; slot 0 is reserved so links, bucket
// heads and list heads can all use 0 as "none".
const nilIdx uint32 = 0

// compactShard is the pointer-free twin of the Shard's index state:
// buckets []uint32 instead of []*item, uint32 list heads instead of
// *item, and the items themselves in chunked slabs.
type compactShard struct {
	// buckets and chunks are atomically published, like the pointer
	// layout's bucket heads and item keys: written only inside exclusive
	// sections, loaded there and by the lock-free warm pass.
	buckets []atomic.Uint32
	head    uint32 // MRU
	tail    uint32 // LRU victim
	free    uint32 // recycled slots (chained via hnext)
	next    uint32 // allocation cursor: first never-used slot (starts at 1)
	chunks  []atomic.Pointer[[slabChunkSize]citem]
	// heapVals is the heap-value side table, parallel to chunks:
	// heapVals[c][i] is the GC-heap buffer of slab index c<<shift|i, the
	// compact twin of the pointer item's value field for values that
	// live on the heap (all of them under ValueHeap; only spills under
	// ValueArena). Chunks are allocated lazily on first heap store, so
	// an all-arena shard keeps nil entries here and presents zero
	// per-item pointers to the collector.
	heapVals [][][]byte
}

func newCompactShard(buckets, capacity int) *compactShard {
	// Slot 0 is reserved and an insert may briefly hold capacity+1
	// items, so the highest index ever handed out is capacity+1.
	nchunks := (capacity+1)>>slabChunkShift + 1
	return &compactShard{
		buckets:  make([]atomic.Uint32, buckets),
		next:     1,
		chunks:   make([]atomic.Pointer[[slabChunkSize]citem], nchunks),
		heapVals: make([][][]byte, nchunks),
	}
}

// at returns the item at slab index i. Index stability (chunks never
// move) makes the returned pointer valid until the next GC-visible
// mutation of the slot, which only the shard's critical sections
// perform.
func (cs *compactShard) at(i uint32) *citem {
	return &cs.chunks[i>>slabChunkShift].Load()[i&slabChunkMask]
}

// cwarmItem is warmItem on the compact layout. A bucket word always
// names a slot whose chunk was published before the word was, so at()
// is safe here with no lock held.
func (s *Shard) cwarmItem(key uint64) {
	cs := s.compact
	if i := cs.buckets[s.hash(key)].Load(); i != nilIdx {
		cs.at(i).key.Load()
	}
}

// alloc returns a free slab index, popping the free list or advancing
// the cursor (growing the slab by one chunk when the cursor crosses
// into it). The popped slot's hnext is reset so recycled slots never
// leak a stale free-list link into a hash chain.
func (cs *compactShard) alloc() uint32 {
	if cs.free != nilIdx {
		i := cs.free
		it := cs.at(i)
		cs.free = it.hnext
		it.hnext = nilIdx
		return i
	}
	i := cs.next
	if c := &cs.chunks[i>>slabChunkShift]; c.Load() == nil {
		c.Store(new([slabChunkSize]citem))
	}
	cs.next++
	return i
}

// heapVal returns slab index i's heap buffer, or nil if none.
func (cs *compactShard) heapVal(i uint32) []byte {
	hv := cs.heapVals[i>>slabChunkShift]
	if hv == nil {
		return nil
	}
	return hv[i&slabChunkMask]
}

// setHeapVal stores slab index i's heap buffer, allocating the side
// chunk on first use.
func (cs *compactShard) setHeapVal(i uint32, v []byte) {
	c := i >> slabChunkShift
	if cs.heapVals[c] == nil {
		cs.heapVals[c] = make([][]byte, slabChunkSize)
	}
	cs.heapVals[c][i&slabChunkMask] = v
}

// clearHeapVal drops slab index i's heap buffer — the compact twin of
// the pointer layout setting it.value = nil.
func (cs *compactShard) clearHeapVal(i uint32) {
	if hv := cs.heapVals[i>>slabChunkShift]; hv != nil {
		hv[i&slabChunkMask] = nil
	}
}

// cfind is find on the compact layout: walk the bucket's index chain.
func (s *Shard) cfind(key uint64) uint32 {
	cs := s.compact
	for i := cs.buckets[s.hash(key)].Load(); i != nilIdx; i = cs.at(i).hnext {
		if cs.at(i).key.Load() == key {
			return i
		}
	}
	return nilIdx
}

// ctouchItem is touchItem on a slab-resident item. Must hold the shard
// lock.
func (s *Shard) ctouchItem(p *numa.Proc, it *citem) {
	c := int32(p.Cluster())
	if it.owner != c {
		it.owner = c
		spin.WaitNs(s.itemRemote)
	} else {
		spin.WaitNs(s.itemLocal)
	}
}

// clruFront moves slab index i to the MRU position. Must hold the
// shard lock.
func (s *Shard) clruFront(i uint32) {
	cs := s.compact
	if cs.head == i {
		return
	}
	it := cs.at(i)
	// unlink
	if it.prev != nilIdx {
		cs.at(it.prev).next = it.next
	}
	if it.next != nilIdx {
		cs.at(it.next).prev = it.prev
	}
	if cs.tail == i {
		cs.tail = it.prev
	}
	// push front
	it.prev = nilIdx
	it.next = cs.head
	if cs.head != nilIdx {
		cs.at(cs.head).prev = i
	}
	cs.head = i
	if cs.tail == nilIdx {
		cs.tail = i
	}
}

// cunlink removes slab index i from both the hash chain and the LRU
// list. Must hold the shard lock.
func (s *Shard) cunlink(i uint32) {
	cs := s.compact
	it := cs.at(i)
	b := &cs.buckets[s.hash(it.key.Load())]
	if head := b.Load(); head == i {
		b.Store(it.hnext)
	} else {
		for cur := head; cur != nilIdx; cur = cs.at(cur).hnext {
			if cs.at(cur).hnext == i {
				cs.at(cur).hnext = it.hnext
				break
			}
		}
	}
	if it.prev != nilIdx {
		cs.at(it.prev).next = it.next
	}
	if it.next != nilIdx {
		cs.at(it.next).prev = it.prev
	}
	if cs.head == i {
		cs.head = it.next
	}
	if cs.tail == i {
		cs.tail = it.prev
	}
	it.prev, it.next, it.hnext = nilIdx, nilIdx, nilIdx
}

// cvalue returns slab index i's current value bytes: a view of its
// arena block when arena-backed, its heap side-table buffer otherwise
// (nil for a zero-length value that never took a buffer — copy treats
// nil as empty, exactly like the pointer layout's empty slice).
func (s *Shard) cvalue(i uint32, it *citem) []byte {
	if it.off != 0 {
		return s.arena.Bytes(it.off, int(it.vlen))
	}
	return s.compact.heapVal(i)
}

// capplyGet is applyGet on the compact layout; the critical-section
// semantics (read-only hash walk, item touch, LRU bump, value copy)
// and cachesim charges match the pointer path exactly.
func (s *Shard) capplyGet(p *numa.Proc, key uint64, dst []byte) (int, bool) {
	i := s.cfind(key)
	if i == nilIdx {
		return 0, false
	}
	it := s.compact.at(i)
	s.ctouchItem(p, it)
	s.clruFront(i)
	return copy(dst, s.cvalue(i, it)), true
}

// capplySet is applySet on the compact layout: same structural steps,
// same cachesim charges, same eviction rule, slab indices in place of
// pointers.
func (s *Shard) capplySet(p *numa.Proc, key uint64, val []byte) {
	cs := s.compact
	slot := &s.slots[p.ID()]
	i := s.cfind(key)
	var it *citem
	if i == nilIdx {
		// Structural insert: writes the bucket chain and allocator.
		s.domain.Access(p, lineHash, 1)
		s.domain.Access(p, lineAlloc, 2)
		i = cs.alloc()
		it = cs.at(i)
		it.key.Store(key)
		b := &cs.buckets[s.hash(key)]
		it.hnext = b.Load()
		b.Store(i)
		s.count++
	} else {
		it = cs.at(i)
		s.ctouchItem(p, it)
	}
	it.owner = int32(p.Cluster())
	s.csetValue(p, i, it, val)
	s.clruFront(i)
	s.domain.Access(p, lineLRU, 2)
	if s.count > s.capacity {
		v := cs.tail
		if v != nilIdx && v != i {
			s.cunlink(v)
			s.count--
			vit := cs.at(v)
			s.cclearValue(p, v, vit)
			vit.hnext = cs.free
			cs.free = v
			s.domain.Access(p, lineHash, 1)
			s.domain.Access(p, lineAlloc, 2)
			slot.evictions++
		}
	}
	s.domain.Access(p, lineStats, 1)
}

// capplyDelete is applyDelete on the compact layout.
func (s *Shard) capplyDelete(p *numa.Proc, key uint64) bool {
	cs := s.compact
	i := s.cfind(key)
	if i == nilIdx {
		return false
	}
	s.domain.Access(p, lineHash, 1)
	s.cunlink(i)
	s.count--
	it := cs.at(i)
	s.cclearValue(p, i, it)
	it.hnext = cs.free
	cs.free = i
	s.domain.Access(p, lineAlloc, 2)
	return true
}

// csetValue is setValue on the compact layout, preserving its exact
// allocation and arena behavior: heap mode grows the slot's side-table
// buffer only when too small; arena mode overwrites the current block
// in place when it fits, else defer-frees it and carves a new block,
// spilling to the heap side table when the arena is exhausted. The
// side-table entry is dropped at exactly the points the pointer layout
// sets it.value = nil (block release, successful carve), so the two
// modes' per-slot buffer reuse — and therefore their Go allocation
// counts — correspond one to one.
func (s *Shard) csetValue(p *numa.Proc, i uint32, it *citem, val []byte) {
	cs := s.compact
	if s.arena == nil {
		v := cs.heapVal(i)
		if cap(v) < len(val) {
			v = make([]byte, len(val))
		}
		v = v[:len(val)]
		copy(v, val)
		cs.setHeapVal(i, v)
		it.vlen = uint32(len(val))
		return
	}
	if it.off != 0 && s.arena.UsableSize(it.off) >= uint32(len(val)) {
		// In-place overwrite: the block's usable size already fits.
		it.vlen = uint32(len(val))
		copy(s.arena.Bytes(it.off, len(val)), val)
		return
	}
	if it.off != 0 {
		s.deferFree(p, it.off)
		it.off = 0
		cs.clearHeapVal(i)
	}
	if len(val) == 0 {
		// Zero-length values carry no bytes; no block, no buffer.
		it.vlen = 0
		return
	}
	s.domain.Access(p, lineAlloc, 2)
	if off, ok := s.arenaMalloc(p, len(val)); ok {
		it.off = off
		it.vlen = uint32(len(val))
		copy(s.arena.Bytes(off, len(val)), val)
		cs.clearHeapVal(i)
		return
	}
	// Graceful spill: the value lives in the heap side table until an
	// overwrite finds arena room again.
	s.slots[p.ID()].spills++
	v := cs.heapVal(i)
	if cap(v) < len(val) {
		v = make([]byte, len(val))
	}
	v = v[:len(val)]
	copy(v, val)
	cs.setHeapVal(i, v)
	it.vlen = uint32(len(val))
}

// cclearValue is clearValue on the compact layout: release the arena
// block (and drop the side-table buffer, as the pointer layout drops
// its value view), or keep a heap buffer for the recycled slot to
// reuse.
func (s *Shard) cclearValue(p *numa.Proc, i uint32, it *citem) {
	if s.arena != nil && it.off != 0 {
		s.deferFree(p, it.off)
		it.off = 0
		it.vlen = 0
		s.compact.clearHeapVal(i)
		return
	}
	it.vlen = 0
	if v := s.compact.heapVal(i); v != nil {
		s.compact.setHeapVal(i, v[:0])
	}
}

// ccheckLRU is checkLRU on the compact layout.
func (s *Shard) ccheckLRU() error {
	cs := s.compact
	seen := 0
	prev := nilIdx
	for i := cs.head; i != nilIdx; i = cs.at(i).next {
		if cs.at(i).prev != prev {
			return fmt.Errorf("kvstore: broken prev link at %d", cs.at(i).key.Load())
		}
		prev = i
		seen++
		if seen > s.count {
			return fmt.Errorf("kvstore: LRU longer than count %d", s.count)
		}
	}
	if cs.tail != prev {
		return fmt.Errorf("kvstore: tail mismatch")
	}
	if seen != s.count {
		return fmt.Errorf("kvstore: LRU has %d items, count %d", seen, s.count)
	}
	return nil
}

// compactCheck verifies the slab's accounting invariants on top of the
// LRU check: every ever-allocated slot is either live (reachable from
// the LRU list) or recycled (reachable from the free list), never
// both, never neither — live + free == slab slots in use — and no
// index chain (LRU, free list, hash buckets) cycles. Quiescent callers
// only (tests, end-of-run checks).
func (s *Shard) compactCheck() error {
	cs := s.compact
	if cs == nil {
		return nil
	}
	used := int(cs.next) - 1 // slot 0 is the reserved sentinel
	if err := s.ccheckLRU(); err != nil {
		return err
	}
	live := s.count
	nfree := 0
	for i := cs.free; i != nilIdx; i = cs.at(i).hnext {
		nfree++
		if nfree > used {
			return fmt.Errorf("kvstore: free list longer than slab (%d slots) — cycle", used)
		}
	}
	if live+nfree != used {
		return fmt.Errorf("kvstore: %d live + %d free != %d slab slots in use", live, nfree, used)
	}
	chained := 0
	for b := range cs.buckets {
		n := 0
		for i := cs.buckets[b].Load(); i != nilIdx; i = cs.at(i).hnext {
			n++
			if n > used {
				return fmt.Errorf("kvstore: hash chain %d longer than slab (%d slots) — cycle", b, used)
			}
		}
		chained += n
	}
	if chained != live {
		return fmt.Errorf("kvstore: hash chains hold %d items, count %d", chained, live)
	}
	return nil
}
