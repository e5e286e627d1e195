package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"
)

// layerRun is the traced run: every workload is run twice for ten
// windows, once with no interposer and once with the interposers in,
// and the layers' own costs are probed one worker at a time. It yields
// every per-layer metric and one span file per workload.
type layerRun struct {
	seed    uint64
	outDir  string
	values  map[string]float64
	checked struct{ attempted, failed int64 }
}

func runLayers(seed uint64, outDir string) (*layerRun, error) {
	lr := &layerRun{seed: seed, outDir: outDir, values: make(map[string]float64)}
	spinBoth(spinUp)
	steps := []func() error{lr.probeSpin, lr.probeLocks, lr.probeAlloc, lr.probeProto,
		lr.lockHandoff, lr.storeRead, lr.storeWrite, lr.wire(wirePipelined, 32), lr.wire(wireRR, 1),
		lr.probeStore}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	for _, m := range perLayer() {
		if _, ok := lr.values[m.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
	}
	return lr, nil
}

func (lr *layerRun) set(name string, v float64) { lr.values[name] = v }

// both runs wl untraced and traced and records the tracing overhead.
func (lr *layerRun) both(wl *workload) (plain, traced result, tr *tracer, err error) {
	run := func(tr *tracer) (result, error) {
		st, err := wl.build(lr.seed, tr)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		// The pre-check has run every cell; two windows' worth of
		// warm-up on top is enough and keeps the traced run short.
		res, err := runWindows(wl.name, st, traceWindows, traceWindow, 2*traceWindow)
		if cerr := st.close(); err == nil {
			err = cerr
		}
		lr.checked.attempted += res.attempted
		lr.checked.failed += res.failed
		return res, err
	}
	if plain, err = run(nil); err != nil {
		return
	}
	runtime.GC()
	tr = newTracer(newTopology(), wl.every)
	if traced, err = run(tr); err != nil {
		return
	}
	lr.set("call."+wl.name+".p50_us", plain.p50us)
	lr.set("call."+wl.name+".p99_us", plain.p99us)
	lr.set("trace."+wl.name+".overhead_share", 1-traced.opsPerS/plain.opsPerS)
	err = tr.writeSpans(lr.outDir, wl.name)
	return
}

func cellNamed(r result, name string) cellSummary {
	for _, c := range r.cells {
		if c.name == name {
			return c
		}
	}
	return cellSummary{layer: map[string]float64{}}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (lr *layerRun) lockHandoff() error {
	plain, traced, _, err := lr.both(lockHandoff)
	if err != nil {
		return err
	}
	// The end-to-end call is sixteen hand-offs with their thinks; the
	// time of a single acquire-to-release is taken in the traced run.
	opTime := func(cell string, q float64) float64 {
		c := cellNamed(traced, cell)
		return c.op.quantile(q)
	}
	for _, pl := range places {
		for _, l := range baseLocks {
			c := cellNamed(plain, l.name+"."+pl.name)
			lr.set("locks."+c.name+".ops_per_s", c.opsPerS)
			lr.set("locks."+c.name+".op_p50_ns", opTime(c.name, 0.50))
			lr.set("locks."+c.name+".op_p99_ns", opTime(c.name, 0.99))
			if pl.name == "cross" {
				// Operations per change of the holder's cluster: the
				// paper's batch length.
				lr.set("locks."+c.name+".ops_per_migration", ratio(c.layer["ops"], c.layer["migrations"]))
				lr.set("locks."+c.name+".fairness_pct", c.fairnessPct)
			}
		}
		c := cellNamed(plain, execName+"."+pl.name)
		lr.set("exec."+c.name+".ops_per_s", c.opsPerS)
		lr.set("exec."+c.name+".op_p50_ns", opTime(c.name, 0.50))
		// Closures per acquisition of the underlying lock, counted by
		// the interposed mutex.
		t := cellNamed(traced, c.name)
		lr.set("exec."+c.name+".ops_per_acq", ratio(t.layer["ops"], t.layer["acquisitions"]))
	}
	return nil
}

// storeLayers decomposes the traced mutex cell's calls per key.
func (lr *layerRun) storeLayers(w string, plain, traced result, tr *tracer) {
	tot := selfTimes(tr.cells[mutexCell])
	keys := float64(tot[spanStoreCall].Count * keysPerCall)
	p := "kvstore." + w + "."
	lr.set(p+"call_ns_per_key", ratio(float64(tot[spanStoreCall].Total), keys))
	lr.set(p+"lock_wait_ns_per_key", ratio(float64(tot[spanLockWait].Total), keys))
	lr.set(p+"cs_ns_per_key", ratio(float64(tot[spanStoreCS].Total), keys))
	// Call minus wait minus critical section: routing, grouping, hashing.
	lr.set(p+"self_ns_per_key", ratio(float64(tot[spanStoreCall].Self), keys))
	t := cellNamed(traced, mutexCell)
	lr.set(p+"acq_per_key", ratio(t.layer["acquisitions"], t.layer["keys"]))
	u := cellNamed(plain, mutexCell)
	lr.set(p+"allocs_per_key", ratio(u.layer["allocs"], u.layer["keys"]))
	for _, c := range plain.cells {
		lr.set(p+c.name+".ops_per_s", c.opsPerS)
	}
}

func (lr *layerRun) storeRead() error {
	plain, traced, tr, err := lr.both(storeRead)
	if err != nil {
		return err
	}
	lr.storeLayers("read", plain, traced, tr)
	return nil
}

func (lr *layerRun) storeWrite() error {
	runtime.GC()
	var gc0, gc1 debug.GCStats
	debug.ReadGCStats(&gc0)
	cpu0 := gcCPU()
	plain, traced, tr, err := lr.both(storeWrite)
	if err != nil {
		return err
	}
	debug.ReadGCStats(&gc1)
	cpu1 := gcCPU()
	lr.storeLayers("write", plain, traced, tr)
	lr.set("kvstore.write.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	lr.set("kvstore.write.gc_pause_ms", float64(gc1.PauseTotal-gc0.PauseTotal)/1e6)
	lr.set("kvstore.write.gc_cpu_share", ratio(cpu1[0]-cpu0[0], cpu1[1]-cpu0[1]))
	u := cellNamed(plain, mutexCell)
	lr.set("kvstore.write.evictions_per_key", ratio(u.layer["evictions"], u.layer["keys"]))
	lr.set("kvstore.write.hit_share", ratio(u.layer["hits"], u.layer["gets"]))
	return nil
}

// gcCPU reads the runtime's estimate of CPU seconds spent in the
// collector and in total.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// wire decomposes the recorded bursts of a wire workload per
// operation: the client's round trip contains the server's handling,
// which contains the store's lock waits and critical sections.
func (lr *layerRun) wire(wl *workload, burst int) func() error {
	return func() error {
		plain, _, tr, err := lr.both(wl)
		if err != nil {
			return err
		}
		m := plain.cells[0].name
		tot := selfTimes(tr.cells[m])
		ops := float64(tot[spanWireRTT].Count * int64(burst))
		serve := tot[spanServe]
		p := "server." + m + "."
		lr.set(p+"serve_ns_per_op", ratio(float64(serve.Total), ops))
		lr.set(p+"store_ns_per_op", ratio(float64(serve.Total-serve.Self), ops)) // lock wait + critical section
		lr.set(p+"self_ns_per_op", ratio(float64(serve.Self), ops))              // parse, batching, format, write
		lr.set(p+"net_ns_per_op", ratio(float64(tot[spanWireRTT].Self), ops))    // kernel, loopback, wake-ups, client verification
		u := plain.cells[0]
		lr.set(p+"ops_per_flush", ratio(u.layer["server_ops"], u.layer["flushes"]))
		if wl == wirePipelined {
			lr.set("server.conn_setup_us", ratio(u.layer["conn_setup_ns"], u.layer["conns"])/1e3)
			lr.set("server.populate.acked_sets_missing", plain.layer["server.populate.acked_sets_missing"])
		}
		return nil
	}
}

// timeOps runs op n times on the calling goroutine, five times over,
// and returns the median nanoseconds per operation.
func timeOps(n int, op func()) float64 {
	var ns []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ns)
}

// probeSpin puts the library's one-shot calibration on record. A
// WaitNs(1000) is spin.Pause(units_per_us); timing that pause says what
// a nominal microsecond costs in this process without the benchmark
// calling WaitNs anywhere.
func (lr *layerRun) probeSpin() error {
	units := spinUnitsPerMicro()
	lr.set("spin.units_per_us", float64(units))
	lr.set("spin.wait_1us_actual_ns", timeOps(20_000, func() { pause(int(units)) }))
	return nil
}

// probeLocks times an uncontended acquire and release, one worker.
func (lr *layerRun) probeLocks() error {
	topo := newTopology()
	p := topo.Proc(0)
	for _, l := range baseLocks {
		m, err := l.new(topo)
		if err != nil {
			return err
		}
		lr.set("locks."+l.name+".uncontended_ns", timeOps(200_000, func() { m.Lock(p); m.Unlock(p) }))
	}
	x, nop := newCombA(topo, newCBOMCS(topo)), func() {}
	lr.set("exec."+execName+".uncontended_ns", timeOps(200_000, func() { x.Exec(p, nop) }))
	return nil
}

// probeAlloc times an unguarded malloc/free pair, one worker.
func (lr *layerRun) probeAlloc() error {
	topo := newTopology()
	a, err := newArena(topo, 1<<20)
	if err != nil {
		return err
	}
	p := topo.Proc(0)
	var failed error
	lr.set("alloc.malloc_free_ns", timeOps(200_000, func() {
		off, err := a.MallocUnguarded(p, fixedValueLen)
		if err == nil {
			err = a.FreeUnguarded(p, off)
		}
		if err != nil {
			failed = err
		}
	}))
	return failed
}

// probeProto times the server's parser over a canned in-memory stream
// and its key hash.
func (lr *layerRun) probeProto() error {
	const n = 20_000
	ks := newKeyspace(n)
	cl := &wireClient{ks: ks, val: make([]byte, maxValueLen)}
	for _, kind := range []string{"get", "set"} {
		for id := 0; id < n; id++ {
			if kind == "get" {
				cl.appendGet(id)
			} else {
				cl.appendSet(id)
			}
		}
		var perr error
		ns := timeOps(1, func() {
			if got, err := parseStream(bytes.NewReader(cl.out)); err != nil || got != n {
				perr = fmt.Errorf("parsed %d of %d %s requests: %v", got, n, kind, err)
			}
		})
		if perr != nil {
			return perr
		}
		lr.set("server.parse_"+kind+"_ns", ns/n)
		cl.out = cl.out[:0]
	}
	names := make([]string, n)
	for i, b := range ks.names {
		names[i] = string(b)
	}
	var sink uint64
	i := 0
	lr.set("server.hashkey_ns", timeOps(200_000, func() {
		sink += hashKey(names[i])
		if i++; i == n {
			i = 0
		}
	}))
	if sink == 0 {
		return fmt.Errorf("key hashes sum to zero")
	}
	return nil
}

// probeStore times the store one worker at a time: single-key get and
// set, heap per key, the memory-mode matrix, and the share of per-key
// time the repository's default simulated charges would add.
func (lr *layerRun) probeStore() error {
	topo := newTopology()
	ks := newKeyspace(residentKeys)
	const calls = residentKeys / keysPerCall
	// one builds and populates a read-shaped store cell.
	one := func(o storeOpts) (*storeCell, error) {
		o.locking = lockings(topo, nil)[mutexCell]().locking
		return newStoreCell(lr.seed, nil, topo, ks, mutexCell, o, false)
	}
	// pass runs `calls` calls of one kind on proc 0 and returns ns per key.
	pass := func(c *storeCell, kind int, tag uint64) float64 {
		w := c.newWorker(topo.Proc(0), stream(lr.seed, tagLayer, tag))
		var busy time.Duration
		for i := 0; i < calls; i++ {
			nextWriteCall(&w.r, c.keys, &w.next)
			w.next.kind = kind
			w.load()
			t0 := time.Now()
			a, ok := w.call()
			busy += time.Since(t0)
			lr.checked.attempted += int64(a)
			lr.checked.failed += int64(a - ok)
		}
		return float64(busy.Nanoseconds()) / (calls * keysPerCall)
	}

	runtime.GC()
	heap0 := heapObjectBytes()
	c, err := one(storeOpts{})
	if err != nil {
		return err
	}
	runtime.GC()
	lr.set("kvstore.heap_bytes_per_key", float64(heapObjectBytes()-heap0)/residentKeys)
	minRead := pass(c, callMGet, 1)
	lr.set("kvstore.get1_ns", pass(c, callGets, 2))
	p, val, i := topo.Proc(0), fillValue(make([]byte, maxValueLen), 0, fixedValueLen), 0
	lr.set("kvstore.set1_ns", timeOps(residentKeys/5, func() {
		c.st.Set(p, ks.hashes[i], fillValue(val, uint64(i), fixedValueLen))
		if i++; i == residentKeys {
			i = 0
		}
	}))
	c = nil

	// Measured once, for the record: the charges are off everywhere else.
	def, err := one(storeOpts{defaultCharges: true})
	if err != nil {
		return err
	}
	lr.set("kvstore.sim_charge_share", 1-ratio(minRead, pass(def, callMGet, 1)))
	def = nil

	for _, vm := range valueModes {
		for _, im := range indexModes {
			runtime.GC()
			var gc0, gc1 debug.GCStats
			debug.ReadGCStats(&gc0)
			name := "kvstore." + vm + "-" + im + "."
			c, err := one(storeOpts{valueMemory: vm, indexMemory: im})
			if err != nil {
				// A mode that no longer parses drops its cell; the
				// names stay, reading zero.
				lr.set(name+"read_ns_per_key", 0)
				lr.set(name+"write_ns_per_key", 0)
				lr.set(name+"gc_pause_ms", 0)
				continue
			}
			lr.set(name+"read_ns_per_key", pass(c, callMGet, 3))
			c.write = true // reads after this accept the lengths the writes chose
			lr.set(name+"write_ns_per_key", pass(c, callMSet, 4))
			runtime.GC() // one full mark with every key resident
			debug.ReadGCStats(&gc1)
			lr.set(name+"gc_pause_ms", float64(gc1.PauseTotal-gc0.PauseTotal)/1e6)
		}
	}
	return nil
}

// heapObjectBytes is the memory occupied by live and unswept heap objects.
func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
