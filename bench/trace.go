package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run places timing interposers from outside, at the public
// seams: a mutex wrapper handed in through the store's LockSource, a
// listener/connection wrapper handed to Server.Serve, and spans the
// client opens around its own calls. Spans inside the program are a
// later issue.
//
// One call in tracer.every records its whole span tree (the call, the
// lock waits and critical sections under it, and on the wire the
// server's handling of it); the others pay only a counter and a branch,
// so tracing perturbs what it measures as little as it can and the
// spans of a 2.5 s run fit in memory and in one file. What a recorded
// call still pays is kept out of other workers' way: inside a critical
// section only the clock is read, spans are appended after the unlock,
// span ids need no shared counter, and workers record at different times.

// sampleRun is the number of consecutive calls recorded together: a
// lone recorded call finds the recording path cold in the caches.
const sampleRun = 32

// span is one timed interval. Parent is the id of the span that caused
// it (0 for a root); the spans of one call share Request.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request_id"`
}

// Span names, by layer.
const (
	spanLockOp    = "lock.op"      // lock-handoff: acquire, critical section, release
	spanStoreCall = "kvstore.call" // one 16-key store call
	spanWireRTT   = "wire.rtt"     // client: burst written to last answer verified
	spanServe     = "server.serve" // server: burst read to going back to the socket
	spanLockWait  = "locks.wait"   // inside Lock
	spanLockCS    = "locks.cs"     // Lock return to Unlock, bare lock
	spanStoreCS   = "kvstore.cs"   // Lock return to Unlock, under a store
)

// spanBuf is an append-only buffer with a single writer. It is sized
// up front so that recording a span does not grow it (the copy and the
// page faults would land inside somebody's timed span), and it numbers
// its own spans.
type spanBuf struct {
	spans []span
	next  int64
}

func (b *spanBuf) id() int64 {
	b.next++
	return b.next
}

func (b *spanBuf) add(s span) { b.spans = append(b.spans, s) }

// procTrace is the per-proc state of the lock wrapper. It is written
// only by the goroutine that owns the proc.
type procTrace struct {
	parent, req  int64  // the recorded call this proc is working for; 0 = none
	waitFrom, at int64  // Lock called, Lock returned; at 0 = not recording
	acq          uint64 // acquisitions, recorded or not
	owner        *tracedConn
	buf          spanBuf
	_            [64]byte
}

type tracer struct {
	base  time.Time
	every int
	procs []procTrace

	handles   atomic.Int64 // callTraces handed out
	liveConns atomic.Int32
	mu        sync.Mutex
	nbufs     int64
	bufs      []*spanBuf
	conns     []*tracedConn
	links     map[string]*link
	cells     map[string][]span // drained spans, by cell
}

func newTracer(t *topology, every int) *tracer {
	tr := &tracer{
		base:  time.Now(),
		every: every,
		procs: make([]procTrace, t.MaxProcs()),
		links: make(map[string]*link),
		cells: make(map[string][]span),
	}
	for i := range tr.procs {
		tr.register(&tr.procs[i].buf, 1<<16)
	}
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// register sizes b, gives it an id space of its own and remembers it
// for the next drain.
func (tr *tracer) register(b *spanBuf, n int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.nbufs++
	*b = spanBuf{spans: make([]span, 0, n), next: tr.nbufs << 32}
	tr.bufs = append(tr.bufs, b)
}

// drain moves every recorded span to the named cell. Call while no
// worker and no server connection is running. A nil tracer has none.
func (tr *tracer) drain(cell string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, b := range tr.bufs {
		tr.cells[cell] = append(tr.cells[cell], b.spans...)
		b.spans = b.spans[:0]
	}
	// Only the procs' buffers outlive a window.
	tr.bufs = tr.bufs[:len(tr.procs)]
}

// acquisitions sums the lock wrapper's count over all procs; a nil
// tracer has counted none.
func (tr *tracer) acquisitions() uint64 {
	if tr == nil {
		return 0
	}
	var n uint64
	for i := range tr.procs {
		n += tr.procs[i].acq
	}
	return n
}

// callTrace is one worker's handle on the tracer: it decides which of
// the worker's calls record a span tree. A nil *callTrace records
// nothing, which is how the untraced run is written.
type callTrace struct {
	tr    *tracer
	name  string
	st    *procTrace // in-process worker: the proc the call runs on
	link  *link      // wire worker: what the server side reads
	buf   spanBuf
	n     int
	id    int64 // the span being recorded; 0 = none
	start int64
}

func (tr *tracer) newCallTrace(name string, st *procTrace, l *link) *callTrace {
	ct := &callTrace{tr: tr, name: name, st: st, link: l}
	tr.register(&ct.buf, 1<<12)
	// Stagger the workers so that they do not record at the same time.
	ct.n = int(tr.handles.Add(1)%2) * sampleRun * (tr.every / 2)
	return ct
}

// worker returns a handle for an in-process worker running on p.
func (tr *tracer) worker(name string, p *proc) *callTrace {
	if tr == nil {
		return nil
	}
	return tr.newCallTrace(name, &tr.procs[p.ID()], nil)
}

// begin opens the call's span if this call is one of those recorded.
func (ct *callTrace) begin() {
	if ct == nil {
		return
	}
	ct.n++
	// The last run of every `every`, not the first: a worker's first
	// calls run on a cold connection and cold caches.
	if ct.n/sampleRun%ct.tr.every != ct.tr.every-1 {
		return
	}
	ct.id = ct.buf.id()
	if ct.st != nil {
		ct.st.parent, ct.st.req = ct.id, ct.id
	} else {
		ct.link.req.Store(ct.id)
	}
	ct.start = ct.tr.now()
}

// end closes the span begin opened, if it opened one.
func (ct *callTrace) end() {
	if ct == nil || ct.id == 0 {
		return
	}
	end := ct.tr.now()
	if ct.st != nil {
		ct.st.parent, ct.st.req = 0, 0
	} else {
		ct.link.req.Store(0)
	}
	ct.buf.add(span{ID: ct.id, Name: ct.name, Start: ct.start, End: end, Request: ct.id})
	ct.id = 0
}

// tracedMutex times Lock and the critical section of the calls being
// recorded, and counts every acquisition.
type tracedMutex struct {
	inner mutex
	tr    *tracer
	cs    string
}

// wrapMutex interposes on m; a nil tracer returns m itself, so the
// end-to-end run has no interposer at all.
func (tr *tracer) wrapMutex(m mutex, cs string) mutex {
	if tr == nil {
		return m
	}
	return &tracedMutex{inner: m, tr: tr, cs: cs}
}

// enter counts the acquisition and, when the proc is working for a
// recorded call, notes when the wait began.
func (tr *tracer) enter(p *proc) *procTrace {
	st := &tr.procs[p.ID()]
	st.acq++
	if st.parent != 0 || tr.adopt(st) {
		st.waitFrom = tr.now()
	}
	return st
}

// entered notes when the lock was obtained: the one thing recording
// does inside the critical section on this side.
func (tr *tracer) entered(st *procTrace) {
	if st.waitFrom != 0 {
		st.at = tr.now()
	}
}

// leaving reads the clock as the critical section ends; left, after the
// unlock, appends the wait and critical-section spans.
func (tr *tracer) leaving(p *proc) (st *procTrace, end int64) {
	st = &tr.procs[p.ID()]
	if st.at != 0 {
		end = tr.now()
	}
	return st, end
}

func (st *procTrace) left(end int64, cs string) {
	if end == 0 {
		return
	}
	st.buf.add(span{ID: st.buf.id(), Name: spanLockWait, Start: st.waitFrom, End: st.at, Parent: st.parent, Request: st.req})
	st.buf.add(span{ID: st.buf.id(), Name: cs, Start: st.at, End: end, Parent: st.parent, Request: st.req})
	st.waitFrom, st.at = 0, 0
}

func (m *tracedMutex) Lock(p *proc) {
	st := m.tr.enter(p)
	m.inner.Lock(p)
	m.tr.entered(st)
}

func (m *tracedMutex) Unlock(p *proc) {
	st, end := m.tr.leaving(p)
	m.inner.Unlock(p)
	st.left(end, m.cs)
}

// tracedRW is tracedMutex for a reader-writer lock; shared
// acquisitions are timed and counted like exclusive ones.
type tracedRW struct {
	tracedMutex
	rw rwMutex
}

func (tr *tracer) wrapRW(l rwMutex, cs string) rwMutex {
	if tr == nil {
		return l
	}
	return &tracedRW{tracedMutex{inner: l, tr: tr, cs: cs}, l}
}

func (l *tracedRW) RLock(p *proc) {
	st := l.tr.enter(p)
	l.rw.RLock(p)
	l.tr.entered(st)
}

func (l *tracedRW) RUnlock(p *proc) {
	st, end := l.tr.leaving(p)
	l.rw.RUnlock(p)
	st.left(end, l.cs)
}

// link carries a wire client's current recorded call to the server
// side of the same connection: one burst is outstanding per connection
// (closed loop), so whatever the server reads belongs to it.
type link struct{ req atomic.Int64 }

// wireWorker returns a handle for a wire client on connection c.
func (tr *tracer) wireWorker(c net.Conn) *callTrace {
	if tr == nil {
		return nil
	}
	ct := tr.newCallTrace(spanWireRTT, nil, &link{})
	tr.mu.Lock()
	tr.links[c.LocalAddr().String()] = ct.link
	tr.mu.Unlock()
	return ct
}

// tracedListener wraps accepted connections.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (tr *tracer) wrapListener(ln net.Listener) net.Listener {
	return &tracedListener{ln, tr}
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, tr: l.tr}
	l.tr.register(&tc.buf, 1<<12)
	l.tr.mu.Lock()
	l.tr.conns = append(l.tr.conns, tc)
	l.tr.mu.Unlock()
	l.tr.liveConns.Add(1)
	return tc, nil
}

// tracedConn is the server's end of a connection. A burst is served
// from the first Read that returns its bytes until the server goes
// back to the socket for more: parse, batching, store calls, response
// formatting, the write and re-arming the deadline all lie in between.
type tracedConn struct {
	net.Conn
	tr   *tracer
	link *link

	inBurst atomic.Bool
	slot    atomic.Pointer[procTrace] // the proc serving this connection, once known

	cur, req, start int64 // the serve span of a recorded burst; cur 0 = none
	buf             spanBuf
}

func (c *tracedConn) Read(b []byte) (int, error) {
	c.endBurst()
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.beginBurst()
	}
	return n, err
}

func (c *tracedConn) beginBurst() {
	c.inBurst.Store(true)
	if c.link == nil {
		// The client registered before it wrote its first byte.
		c.tr.mu.Lock()
		c.link = c.tr.links[c.RemoteAddr().String()]
		c.tr.mu.Unlock()
		if c.link == nil {
			return
		}
	}
	req := c.link.req.Load()
	if req == 0 {
		return
	}
	c.cur, c.req, c.start = c.buf.id(), req, c.tr.now()
	if st := c.slot.Load(); st != nil {
		st.parent, st.req = c.cur, c.req
	}
}

func (c *tracedConn) endBurst() {
	if !c.inBurst.Load() {
		return
	}
	c.inBurst.Store(false)
	if c.cur == 0 {
		return
	}
	// The client's span id is its request id.
	c.buf.add(span{ID: c.cur, Name: spanServe, Start: c.start, End: c.tr.now(), Parent: c.req, Request: c.req})
	c.cur = 0
	if st := c.slot.Load(); st != nil {
		st.parent, st.req = 0, 0
	}
}

func (c *tracedConn) Close() error {
	c.endBurst()
	if st := c.slot.Load(); st != nil {
		st.owner = nil
	}
	c.tr.mu.Lock()
	for i, o := range c.tr.conns {
		if o == c {
			c.tr.conns = append(c.tr.conns[:i], c.tr.conns[i+1:]...)
			break
		}
	}
	delete(c.tr.links, c.RemoteAddr().String())
	c.tr.mu.Unlock()
	c.tr.liveConns.Add(-1)
	return c.Conn.Close()
}

// adopt finds out which connection the proc behind st serves. The
// server gives each connection one proc for its lifetime but does not
// say which; the lock wrapper is, however, called on the connection's
// own goroutine in the middle of a burst, so when exactly one
// connection is mid-burst and still unmatched it is this one. With two
// connections the match may take a few calls; spans before it carry no
// parent. It reports whether the proc is now serving a recorded burst.
func (tr *tracer) adopt(st *procTrace) bool {
	if st.owner != nil || tr.liveConns.Load() == 0 {
		return false
	}
	tr.mu.Lock()
	var cand *tracedConn
	n := 0
	for _, c := range tr.conns {
		if c.inBurst.Load() && c.slot.Load() == nil {
			cand = c
			n++
		}
	}
	if n == 1 {
		cand.slot.Store(st)
		st.owner = cand
		st.parent, st.req = cand.cur, cand.req
	}
	tr.mu.Unlock()
	return st.parent != 0
}

// spanTotals are the sums over the spans of one name.
type spanTotals struct {
	Count int64 `json:"count"`
	Total int64 `json:"total_ns"`
	// Self is the total minus the part the spans' children cover.
	Self int64 `json:"self_ns"`
}

// selfTimes sums spans by name and derives each name's self time: a
// span's duration minus the part of that interval its child spans
// cover (children clipped to the parent, overlaps counted once).
func selfTimes(spans []span) map[string]spanTotals {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.Self += s.End - s.Start - covered
		out[s.Name] = t
	}
	return out
}

// writeSpans writes a workload's spans, by cell, with the per-name
// totals derived from them.
func (tr *tracer) writeSpans(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type cellOut struct {
		Totals map[string]spanTotals `json:"totals"`
		Spans  []span                `json:"spans"`
	}
	out := struct {
		Workload string             `json:"workload"`
		Every    int                `json:"one_call_in"`
		Cells    map[string]cellOut `json:"cells"`
	}{workload, tr.every, make(map[string]cellOut)}
	for name, spans := range tr.cells {
		out.Cells[name] = cellOut{selfTimes(spans), spans}
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
