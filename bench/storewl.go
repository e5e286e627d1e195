package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"
)

// store-read: the in-process store's read path does most of the work;
// no allocation, no wire. 200 000 keys of 128 B in a 400 000-item
// capacity (everything fits); a call is an MGet of 16 uniform random
// keys, or one time in four 16 single Gets.
var storeRead = &workload{
	name:  "store-read",
	why:   "the store's read path does the work: 16-key MGet or 16 Gets over 200 000 resident keys, no allocation, no wire",
	every: 128,
	build: func(seed uint64, tr *tracer) (*stack, error) { return buildStore(seed, tr, false) },
}

// store-write: the same layer the other way: allocation, free, LRU
// eviction and GC. A 400 000-key space over a 200 000-item capacity
// (steady eviction), value lengths 64 to 512 B from the seed so
// overwrites outgrow their buffers; a call is 16 keys through MSet
// (70 %), MGet (20 %) or MDelete (10 %). Misses are legal here; a hit
// with the wrong bytes or length is not ok.
var storeWrite = &workload{
	name:  "store-write",
	why:   "the store's write path does the work: 16-key MSet/MGet/MDelete over twice the capacity, so allocation, eviction and GC show",
	every: 128,
	build: func(seed uint64, tr *tracer) (*stack, error) { return buildStore(seed, tr, true) },
}

const (
	residentKeys  = 200_000
	readCapacity  = 400_000
	writeKeys     = 400_000
	writeCapacity = 200_000
)

// The cell of the store workloads that the traced run decomposes.
const mutexCell = "mutex"

// storeCell is one store under one locking, and the load on it.
type storeCell struct {
	name  string
	tr    *tracer
	topo  *topology
	st    *store
	ks    *keyspace
	keys  int // size of the key space calls draw from
	write bool
	tag   uint64
}

// storeWorker is one worker's buffers; it allocates nothing per call.
type storeWorker struct {
	c     *storeCell
	p     *proc
	ct    *callTrace
	r     rng
	next  storeCall
	keys  [keysPerCall]uint64
	vals  [][]byte
	dsts  [][]byte
	lens  []int
	found []bool
}

func (c *storeCell) newWorker(p *proc, r rng) *storeWorker {
	w := &storeWorker{c: c, p: p, r: r, ct: c.tr.worker(spanStoreCall, p),
		lens: make([]int, keysPerCall), found: make([]bool, keysPerCall)}
	for i := 0; i < keysPerCall; i++ {
		w.vals = append(w.vals, make([]byte, maxValueLen))
		w.dsts = append(w.dsts, make([]byte, maxValueLen))
	}
	return w
}

// think draws the next call and, for a write, renders its values:
// input generation is not part of the timed call.
func (w *storeWorker) think() {
	if w.c.write {
		nextWriteCall(&w.r, w.c.keys, &w.next)
	} else {
		nextReadCall(&w.r, w.c.keys, &w.next)
	}
	w.load()
}

// load resolves the call's key ids and renders its values.
func (w *storeWorker) load() {
	for i, id := range w.next.ids {
		w.keys[i] = w.c.ks.hashes[id]
		if w.next.kind == callMSet {
			w.vals[i] = fillValue(w.vals[i][:cap(w.vals[i])], uint64(id), w.next.lens[i])
		}
	}
}

// call issues the drawn call and verifies every answer.
func (w *storeWorker) call() (attempted, ok int) {
	w.ct.begin()
	st := w.c.st
	ok = keysPerCall
	switch w.next.kind {
	case callMGet:
		st.MGet(w.p, w.keys[:], w.dsts, w.lens, w.found)
		for i, id := range w.next.ids {
			if !w.answerOK(id, w.dsts[i][:w.lens[i]], w.found[i]) {
				ok--
			}
		}
	case callGets:
		for i, id := range w.next.ids {
			n, found := st.Get(w.p, w.keys[i], w.dsts[i])
			if !w.answerOK(id, w.dsts[i][:n], found) {
				ok--
			}
		}
	case callMSet:
		st.MSet(w.p, w.keys[:], w.vals)
	case callMDelete:
		st.MDelete(w.p, w.keys[:])
	}
	w.ct.end()
	return keysPerCall, ok
}

// answerOK judges one get. On the read workload every key is resident
// with a 128-byte value; on the write workload a miss is legal and a
// hit may have any length a writer could have chosen.
func (w *storeWorker) answerOK(id int, b []byte, found bool) bool {
	if w.c.write {
		return !found || checkValue(b, uint64(id), -1)
	}
	return found && checkValue(b, uint64(id), fixedValueLen)
}

func (c *storeCell) window(seed uint64, cellIdx int) func(time.Duration, int) (windowResult, error) {
	return func(d time.Duration, win int) (windowResult, error) {
		var ws []worker
		for i := 0; i < 2; i++ {
			w := c.newWorker(c.topo.Proc(i), stream(seed, c.tag, uint64(cellIdx), uint64(win), uint64(i)))
			ws = append(ws, worker{think: w.think, call: w.call})
		}
		before, allocs, acq := snapshotStore(c.st), heapAllocs(), c.tr.acquisitions()
		r := runWindow(d, ws)
		after := snapshotStore(c.st)
		r.layer = map[string]float64{
			"keys":         float64(r.attempted),
			"allocs":       float64(heapAllocs() - allocs),
			"acquisitions": float64(c.tr.acquisitions() - acq),
			"gets":         float64(after.gets - before.gets),
			"hits":         float64(after.hits - before.hits),
			"evictions":    float64(after.evictions - before.evictions),
		}
		c.tr.drain(c.name)
		return r, nil
	}
}

// eachChunk splits ids 0..n-1 into keysPerCall chunks and runs them on
// the given number of workers (procs 0, 1), worker i taking every
// workers-th chunk.
func (c *storeCell) eachChunk(workers, n int, seed uint64, fn func(w *storeWorker)) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := c.newWorker(c.topo.Proc(i), stream(seed, c.tag, ^uint64(0), uint64(i)))
			w.ct = nil
			for lo := i * keysPerCall; lo < n; lo += workers * keysPerCall {
				for j := range w.next.ids {
					w.next.ids[j] = min(lo+j, n-1)
					w.next.lens[j] = fixedValueLen
					if c.write {
						w.next.lens[j] = minValueLen + w.r.intn(maxValueLen-minValueLen+1)
					}
				}
				fn(w)
			}
		}(i)
	}
	wg.Wait()
}

// populate sets every key of the cell's key space once, in order, on
// one worker: two would race for the allocator, the store's items
// would land in memory in a different order every time, and measured
// throughput would differ by several per cent from one construction to
// the next.
func (c *storeCell) populate(seed uint64) {
	c.eachChunk(1, c.keys, seed, func(w *storeWorker) {
		w.next.kind = callMSet
		w.load()
		w.call()
	})
}

// precheck reads every key back and verifies it byte for byte.
func (c *storeCell) precheck() error {
	var mu sync.Mutex
	var bad, hits int
	c.eachChunk(2, c.keys, 0, func(w *storeWorker) {
		w.next.kind = callMGet
		w.load()
		_, ok := w.call()
		h := 0
		for _, f := range w.found {
			if f {
				h++
			}
		}
		mu.Lock()
		bad += keysPerCall - ok
		hits += h
		mu.Unlock()
	})
	c.tr.drain(c.name)
	if bad > 0 {
		return fmt.Errorf("%s: %d of %d keys read back wrong", c.name, bad, c.keys)
	}
	if c.write && (hits < writeCapacity/2 || hits > writeCapacity+2*keysPerCall) {
		return fmt.Errorf("%s: %d keys resident in a capacity of %d", c.name, hits, writeCapacity)
	}
	return nil
}

// lockings are the three ways a store's shards are locked here, each
// over c-bo-mcs, built through the tracer so that the traced run sees
// every acquisition.
func lockings(topo *topology, tr *tracer) map[string]func() storeOpts {
	return map[string]func() storeOpts{
		// exclusive read path, an LRU bump per hit
		mutexCell: func() storeOpts {
			return storeOpts{locking: lockingFromMutex(func() mutex { return tr.wrapMutex(newCBOMCS(topo), spanStoreCS) })}
		},
		// shared read path, sampled LRU touches
		"rw": func() storeOpts {
			return storeOpts{locking: lockingFromRW(func() rwMutex { return tr.wrapRW(newRWCBOMCS(topo), spanStoreCS) })}
		},
		// read combining over the shared path
		"comb-a-rw": func() storeOpts {
			return storeOpts{locking: lockingFromExec(func() executor {
				return newCombARW(topo, tr.wrapRW(newRWCBOMCS(topo), spanStoreCS))
			})}
		},
		// write combining over the exclusive path
		execName: func() storeOpts {
			return storeOpts{locking: lockingFromExec(func() executor {
				return newCombA(topo, tr.wrapMutex(newCBOMCS(topo), spanStoreCS))
			})}
		},
	}
}

var (
	readCells  = []string{mutexCell, "rw", "comb-a-rw"}
	writeCells = []string{mutexCell, execName}
)

// newStoreCell builds, populates and pre-checks one store.
func newStoreCell(seed uint64, tr *tracer, topo *topology, ks *keyspace, name string, o storeOpts, write bool) (*storeCell, error) {
	c := &storeCell{name: name, tr: tr, topo: topo, ks: ks, keys: residentKeys, write: write, tag: tagStoreRead}
	o.capacity = readCapacity
	if write {
		c.keys, c.tag, o.capacity = writeKeys, tagStoreWrite, writeCapacity
	}
	st, err := newStore(topo, o)
	if err != nil {
		return nil, err
	}
	c.st = st
	c.populate(seed)
	return c, c.precheck()
}

func buildStore(seed uint64, tr *tracer, write bool) (*stack, error) {
	topo := newTopology()
	names, keys := readCells, residentKeys
	if write {
		names, keys = writeCells, writeKeys
	}
	ks := newKeyspace(keys)
	how := lockings(topo, tr)
	st := &stack{close: func() error { return nil }}
	for i, name := range names {
		c, err := newStoreCell(seed, tr, topo, ks, name, how[name](), write)
		if err != nil {
			return nil, err
		}
		st.cells = append(st.cells, &cell{name: name, window: c.window(seed, i)})
	}
	return st, nil
}

// heapAllocs is the process's cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
