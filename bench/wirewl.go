package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// wire-pipelined: the server on loopback over the mutex store, two
// connections, a call is one burst of 32 requests (95 % get, 5 % set)
// written at once and all 32 answers read. Parse, run accumulation,
// the flush through MGet/MSet and response formatting dominate;
// syscalls are amortized 32 times. One connection would leave a vCPU
// idle half the time (client and server take turns), and on this host
// an idle vCPU comes back slow: the spread between runs was then 6 %
// one hour and 31 % another. Two connections keep both vCPUs busy.
var wirePipelined = &workload{
	name:  "wire-pipelined",
	why:   "parse, batching and response formatting dominate: bursts of 32 requests on each of two connections amortize the syscalls",
	every: 16,
	build: func(seed uint64, tr *tracer) (*stack, error) {
		return buildWire(seed, tr, wireShape{"pipelined", tagWirePipelined, residentKeys, 2, 32, 5}, false)
	},
}

// wire-rr: the same server, two connections, a call is one request and
// its answer (90 % get, 10 % set): one read, one write and the
// deadline re-arming per single operation, the per-request fixed cost
// that pipelining hides.
var wireRR = &workload{
	name:  "wire-rr",
	why:   "per-request fixed cost dominates: one request and its answer at a time on each of two connections",
	every: 64,
	build: func(seed uint64, tr *tracer) (*stack, error) {
		return buildWire(seed, tr, wireShape{"rr", tagWireRR, residentKeys, 2, 1, 10}, false)
	},
}

// wireShape is what differs between the two wire workloads.
type wireShape struct {
	name   string
	tag    uint64
	keys   int // populated over the wire, all read back
	conns  int
	burst  int
	setPct int
}

const (
	populateBurst = 256
	ioTimeout     = 30 * time.Second
)

var (
	crlf      = []byte("\r\n")
	endLine   = []byte("END\r\n")
	storedLn  = []byte("STORED\r\n")
	versionLn = []byte("version\r\n")
)

// wireClient is one memcached text connection. It allocates nothing
// per request.
type wireClient struct {
	c   net.Conn
	rd  *bufio.Reader
	ks  *keyspace
	out []byte
	val []byte
}

// dial connects and waits for the server to answer a version request,
// so that the connection has been accepted, given a proc and served
// before anything is timed.
func dial(addr string, ks *keyspace) (*wireClient, error) {
	c, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	w := &wireClient{c: c, rd: bufio.NewReaderSize(c, 64<<10), ks: ks, val: make([]byte, maxValueLen)}
	w.extend(ioTimeout)
	if _, err := c.Write(versionLn); err != nil {
		c.Close()
		return nil, err
	}
	if line, err := w.rd.ReadSlice('\n'); err != nil || !bytes.HasPrefix(line, []byte("VERSION ")) {
		c.Close()
		return nil, fmt.Errorf("version answered %q: %v", line, err)
	}
	return w, nil
}

// extend pushes the connection's deadline out: a hung server fails the
// run, it never hangs it.
func (w *wireClient) extend(d time.Duration) { w.c.SetDeadline(time.Now().Add(d)) }

func (w *wireClient) appendGet(id int) {
	w.out = append(w.out, "get "...)
	w.out = append(w.out, w.ks.names[id]...)
	w.out = append(w.out, crlf...)
}

func (w *wireClient) appendSet(id int) {
	w.out = append(w.out, "set "...)
	w.out = append(w.out, w.ks.names[id]...)
	w.out = append(w.out, " 0 0 "...)
	w.out = strconv.AppendInt(w.out, fixedValueLen, 10)
	w.out = append(w.out, crlf...)
	w.out = append(w.out, fillValue(w.val, uint64(id), fixedValueLen)...)
	w.out = append(w.out, crlf...)
}

// send writes the rendered burst in one write.
func (w *wireClient) send() error {
	_, err := w.c.Write(w.out)
	w.out = w.out[:0]
	return err
}

// readSet reads the answer to a set: ok when it is STORED.
func (w *wireClient) readSet() (bool, error) {
	line, err := w.rd.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	return bytes.Equal(line, storedLn), nil
}

// readGet reads the answer to a single-key get of key id and verifies
// it byte for byte. A miss, a refusal, another key's bytes or a wrong
// length are all not ok; the stream stays framed in every case.
func (w *wireClient) readGet(id int) (bool, error) {
	line, err := w.rd.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	if !bytes.HasPrefix(line, []byte("VALUE ")) {
		// END (a miss), or a one-line error such as SERVER_ERROR busy.
		return false, nil
	}
	key, rest, _ := bytes.Cut(line[len("VALUE "):], []byte(" "))
	flags, size, _ := bytes.Cut(rest, []byte(" "))
	n := 0
	for _, c := range bytes.TrimRight(size, "\r\n") {
		if c < '0' || c > '9' || n > 1<<20 {
			return false, fmt.Errorf("malformed answer %q", line)
		}
		n = n*10 + int(c-'0')
	}
	ok := bytes.Equal(key, w.ks.names[id]) && len(flags) == 1 && flags[0] == '0' && n == fixedValueLen
	body, err := w.rd.Peek(n + 2)
	if err != nil {
		return false, err
	}
	ok = ok && checkValue(body[:n], uint64(id), fixedValueLen)
	w.rd.Discard(n + 2)
	end, err := w.rd.ReadSlice('\n')
	if err != nil {
		return false, err
	}
	return ok && bytes.Equal(end, endLine), nil
}

// wireWorker is one closed-loop client connection of a window.
type wireWorker struct {
	cl    *wireClient
	ct    *callTrace
	r     rng
	shape wireShape
	keys  int
	ops   []wireOp
	err   error
}

// think draws and renders the next burst; rendering is not timed.
func (w *wireWorker) think() {
	w.ops = w.ops[:0]
	for i := 0; i < w.shape.burst; i++ {
		op := nextWireOp(&w.r, w.keys, w.shape.setPct)
		w.ops = append(w.ops, op)
		if op.set {
			w.cl.appendSet(op.id)
		} else {
			w.cl.appendGet(op.id)
		}
	}
}

// call writes the burst at once and reads and verifies every answer.
// After a transport error the connection is dead: the error is kept
// for the window to report and every further operation counts as failed.
func (w *wireWorker) call() (attempted, ok int) {
	if w.err != nil {
		time.Sleep(time.Millisecond)
		return len(w.ops), 0
	}
	w.ct.begin()
	w.err = w.cl.send()
	for _, op := range w.ops {
		if w.err != nil {
			break
		}
		var good bool
		if op.set {
			good, w.err = w.cl.readSet()
		} else {
			good, w.err = w.cl.readGet(op.id)
		}
		if good {
			ok++
		}
	}
	w.ct.end()
	return len(w.ops), ok
}

// wireStack is a populated store behind a listening server.
type wireStack struct {
	tr    *tracer
	topo  *topology
	ks    *keyspace
	st    *store
	srv   *wireServer
	shape wireShape
}

// quiesce waits until the server has finished with every connection,
// so that its procs are back in their pools.
func (s *wireStack) quiesce() error {
	for end := time.Now().Add(ioTimeout); s.srv.counters().active > 0; {
		if time.Now().After(end) {
			return errors.New("server still has active connections")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// populate sets every key over the wire in bursts of 256 on one
// connection and returns how many sets were acknowledged STORED.
func (s *wireStack) populate() (acked int, err error) {
	cl, err := dial(s.srv.addr, s.ks)
	if err != nil {
		return 0, err
	}
	defer cl.c.Close()
	n := len(s.ks.names)
	for lo := 0; lo < n; lo += populateBurst {
		hi := min(lo+populateBurst, n)
		for id := lo; id < hi; id++ {
			cl.appendSet(id)
		}
		cl.extend(ioTimeout)
		if err := cl.send(); err != nil {
			return acked, err
		}
		for id := lo; id < hi; id++ {
			ok, err := cl.readSet()
			if err != nil {
				return acked, err
			}
			if ok {
				acked++
			}
		}
	}
	return acked, nil
}

// readBack reads every key over the wire and then straight from the
// store, and returns the keys either reading does not find with the
// right bytes. An acknowledged set that cannot be read back is a lost
// write, whatever the acknowledgement said.
func (s *wireStack) readBack() (missing []int, err error) {
	n := len(s.ks.names)
	absent := make([]bool, n)
	cl, err := dial(s.srv.addr, s.ks)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < n; lo += populateBurst {
		hi := min(lo+populateBurst, n)
		for id := lo; id < hi; id++ {
			cl.appendGet(id)
		}
		cl.extend(ioTimeout)
		if err := cl.send(); err != nil {
			cl.c.Close()
			return nil, err
		}
		for id := lo; id < hi; id++ {
			ok, err := cl.readGet(id)
			if err != nil {
				cl.c.Close()
				return nil, err
			}
			absent[id] = !ok
		}
	}
	cl.c.Close()
	if err := s.quiesce(); err != nil {
		return nil, err
	}
	// The server keeps a 4-byte flags header ahead of the value.
	p, dst := s.topo.Proc(0), make([]byte, 4+maxValueLen)
	for id := 0; id < n; id++ {
		got, found := s.st.Get(p, s.ks.hashes[id], dst)
		if !found || got < 4 || !checkValue(dst[4:got], uint64(id), fixedValueLen) {
			absent[id] = true
		}
		if absent[id] {
			missing = append(missing, id)
		}
	}
	return missing, nil
}

// repair sets the given keys again, one request at a time.
func (s *wireStack) repair(ids []int) error {
	cl, err := dial(s.srv.addr, s.ks)
	if err != nil {
		return err
	}
	defer cl.c.Close()
	for _, id := range ids {
		cl.appendSet(id)
		if err := cl.send(); err != nil {
			return err
		}
		if ok, err := cl.readSet(); err != nil || !ok {
			return fmt.Errorf("set of key %d not stored: %v", id, err)
		}
	}
	return nil
}

// window opens fresh connections (so goroutine and accept-loop
// placement averages out over windows), runs the workers and closes.
func (s *wireStack) window(seed uint64) func(time.Duration, int) (windowResult, error) {
	return func(d time.Duration, win int) (windowResult, error) {
		var wws []*wireWorker
		var ws []worker
		var connSetup time.Duration // dial to first answer, summed
		defer func() {
			for _, w := range wws {
				w.cl.c.Close()
			}
		}()
		for i := 0; i < s.shape.conns; i++ {
			t0 := time.Now()
			cl, err := dial(s.srv.addr, s.ks)
			if err != nil {
				return windowResult{}, err
			}
			connSetup += time.Since(t0)
			cl.extend(d + ioTimeout)
			w := &wireWorker{cl: cl, ct: s.tr.wireWorker(cl.c), shape: s.shape, keys: len(s.ks.names),
				r: stream(seed, s.shape.tag, uint64(win), uint64(i))}
			wws = append(wws, w)
			ws = append(ws, worker{think: w.think, call: w.call})
		}
		before, acq := s.srv.counters(), s.tr.acquisitions()
		r := runWindow(d, ws)
		for _, w := range wws {
			w.cl.c.Close()
			if w.err != nil {
				return r, fmt.Errorf("connection failed: %w", w.err)
			}
		}
		if err := s.quiesce(); err != nil {
			return r, err
		}
		after := s.srv.counters()
		r.layer = map[string]float64{
			"ops":           float64(r.attempted),
			"conns":         float64(s.shape.conns),
			"conn_setup_ns": float64(connSetup),
			"server_ops":    float64(after.ops - before.ops),
			"flushes":       float64(after.flushes - before.flushes),
			"acquisitions":  float64(s.tr.acquisitions() - acq),
		}
		s.tr.drain(s.shape.name)
		return r, nil
	}
}

// buildWire builds the store, serves it, populates it over the wire,
// reads every key back and repairs what the read-back finds missing,
// so that the workload itself runs on a store in which every key is
// present and no operation of it fails. What the read-back found is
// not hidden: it is the per-layer metric
// server.populate.acked_sets_missing.
func buildWire(seed uint64, tr *tracer, shape wireShape, broken bool) (*stack, error) {
	s, missing, err := newWireStack(tr, shape, broken)
	if err != nil {
		return nil, err
	}
	if err := s.repair(missing); err != nil {
		s.srv.stop()
		return nil, err
	}
	if again, err := s.readBack(); err != nil || len(again) > 0 {
		s.srv.stop()
		return nil, fmt.Errorf("%d keys still missing after repair: %v", len(again), err)
	}
	s.tr.drain("populate")
	return &stack{
		cells: []*cell{{name: shape.name, window: s.window(seed)}},
		layer: map[string]float64{"server.populate.acked_sets_missing": float64(len(missing))},
		close: s.srv.stop,
	}, nil
}

// newWireStack builds, serves and populates, and returns the keys whose
// acknowledged set cannot be read back.
func newWireStack(tr *tracer, shape wireShape, broken bool) (*wireStack, []int, error) {
	topo := newTopology()
	o := lockings(topo, tr)[mutexCell]()
	o.capacity = readCapacity
	st, err := newStore(topo, o)
	if err != nil {
		return nil, nil, err
	}
	var wrap func(net.Listener) net.Listener
	if tr != nil {
		wrap = tr.wrapListener
	}
	srv, err := startServer(topo, st, wrap, broken)
	if err != nil {
		return nil, nil, err
	}
	s := &wireStack{tr: tr, topo: topo, ks: newKeyspace(shape.keys), st: st, srv: srv, shape: shape}
	acked, err := s.populate()
	if err == nil && acked != shape.keys {
		err = fmt.Errorf("%d of %d sets acknowledged", acked, shape.keys)
	}
	var missing []int
	if err == nil {
		missing, err = s.readBack()
	}
	if err != nil {
		srv.stop()
		return nil, nil, err
	}
	return s, missing, nil
}
