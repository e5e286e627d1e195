package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/numa"
)

// Config parameterizes a Server. Topo and Store are required; every
// other field defaults.
type Config struct {
	// Topo is the software NUMA topology connections are pinned
	// against: each accept loop serves one cluster and every admitted
	// connection owns one of that cluster's *numa.Proc handles for its
	// lifetime (Procs carry unsynchronized per-thread state, so the
	// exclusive ownership is load-bearing, not cosmetic).
	Topo *numa.Topology
	// Store is the batched store requests flush into. It routes by
	// key alone, so every connection, whichever cluster it is pinned
	// to, sees one keyspace.
	Store *kvstore.Store
	// ConnsPerCluster caps concurrently admitted connections per
	// cluster — the store-front application of restricting concurrency
	// (see DESIGN.md §5): when a cluster's Proc pool is empty its
	// accept loop simply stops accepting, queueing excess clients in
	// the listen backlog instead of adding them to the contention mix.
	// Capped by the topology's procs per cluster, which is also the
	// default.
	ConnsPerCluster int
	// MaxValueBytes caps accepted set values (DoS bound; also sizes
	// the per-connection response buffers). Default 64 KiB.
	MaxValueBytes int
	// ReadTimeout bounds how long a connection may sit idle or
	// mid-request before being cut; each request read refreshes the
	// deadline. Default 2m.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush. Default 30s.
	WriteTimeout time.Duration
	// Broken selects a deliberately defective server behavior for
	// harness validation — the chaos twin of locktest's broken locks.
	// Production configs leave it BrokenNone.
	Broken BrokenMode
}

// BrokenMode enumerates deliberate contract violations used to prove
// the chaos harness catches them (internal/soak's self-tests feed a
// Broken server to the soak verifier and assert it objects), mirroring
// locktest's broken-lock self-test discipline.
type BrokenMode int

const (
	// BrokenNone is the production behavior.
	BrokenNone BrokenMode = iota
	// BrokenDropAckedWrite answers STORED for every fourth set without
	// applying it — the exact violation the ack contract forbids
	// (STORED is written only after the set is applied). A soak
	// harness that fails to flag a run against this server is not
	// testing anything.
	BrokenDropAckedWrite
)

const (
	// DefaultMaxValueBytes caps set values unless configured.
	DefaultMaxValueBytes = 64 << 10
	// connMemoryBytes bounds one connection's decode staging: a
	// pipelined set run flushes early once its buffered values reach
	// it, and get responses chunk so response staging stays under it.
	// Generous enough that the default MaxBatch×MaxValueBytes response
	// window fits (so batching amortization is untouched), small enough
	// that a thousand hostile connections cannot balloon the heap. New
	// raises it to MaxValueBytes+4 when that is larger (one op must fit).
	connMemoryBytes     = 8 << 20
	defaultReadTimeout  = 2 * time.Minute
	defaultWriteTimeout = 30 * time.Second
	// DefaultVersion is the string answered to the version command.
	DefaultVersion = "repro-kvserver 1.0"
	// readerBufBytes is the per-connection decode buffer, which is
	// also the request-line length bound (a ~250-byte key times a
	// long multi-key get fits comfortably).
	readerBufBytes = 16 << 10
	writerBufBytes = 16 << 10
)

func (c *Config) setDefaults() error {
	if c.Topo == nil || c.Store == nil {
		return errors.New("server: Config needs Topo and Store")
	}
	perCluster := c.Topo.MaxProcs() / c.Topo.Clusters()
	if perCluster < 1 {
		perCluster = 1
	}
	if c.ConnsPerCluster <= 0 || c.ConnsPerCluster > perCluster {
		c.ConnsPerCluster = perCluster
	}
	if c.MaxValueBytes <= 0 {
		c.MaxValueBytes = DefaultMaxValueBytes
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = defaultReadTimeout
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = defaultWriteTimeout
	}
	return nil
}

// Stats is a point-in-time snapshot of server activity.
type Stats struct {
	// Accepted counts admitted connections; Active is how many are
	// being served right now.
	Accepted, Active uint64
	// Gets/Sets/Deletes count operations applied to the store (a
	// multi-key get counts one per key).
	Gets, Sets, Deletes uint64
	// Hits counts get operations that found their key.
	Hits uint64
	// Flushes counts store batch calls — Gets+Sets+Deletes over
	// Flushes is the realized pipelining amortization.
	Flushes uint64
	// BadRequests counts protocol errors answered with an error line.
	BadRequests uint64
	// EvictedConns counts connections cut by a per-op deadline outside
	// a drain: idle clients at ReadTimeout, stalled or slow clients at
	// WriteTimeout.
	EvictedConns uint64
	// ClientGone counts connections the CLIENT broke mid-frame (a
	// disconnect inside a set payload, a reset mid-request) — a
	// network/client fault, distinct from BadRequests (malformed but
	// complete frames, a protocol fault). Chaos runs use the split to
	// tell injected faults from server bugs.
	ClientGone uint64
}

// Server is the TCP front-end. Build with New, run with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg   Config
	store *kvstore.Store
	// connMem is connMemoryBytes raised to fit one maximal value.
	connMem int

	// pools[c] holds cluster c's admissible Proc handles; an accept
	// loop takes one before accepting and returns it when the
	// connection ends, so pool exhaustion IS the admission cap, the
	// server's one admission control.
	pools []chan *numa.Proc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	done     chan struct{}
	// drainFlag mirrors draining for lock-free reads on the decode
	// loop's blocking path. Shutdown sets it BEFORE nudging read
	// deadlines, and the loop re-checks it AFTER arming its own
	// deadline, so a connection either sees the flag or its blocked
	// read is woken by the nudge — never a missed drain.
	drainFlag atomic.Bool

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup

	accepted     atomic.Uint64
	active       atomic.Int64
	gets         atomic.Uint64
	sets         atomic.Uint64
	deletes      atomic.Uint64
	hits         atomic.Uint64
	flushes      atomic.Uint64
	badRequests  atomic.Uint64
	evictedConns atomic.Uint64
	clientGone   atomic.Uint64
}

// New validates cfg and builds a Server (not yet listening).
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   cfg.Store,
		connMem: max(connMemoryBytes, cfg.MaxValueBytes+4),
		pools:   make([]chan *numa.Proc, cfg.Topo.Clusters()),
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	for c := range s.pools {
		s.pools[c] = make(chan *numa.Proc, cfg.ConnsPerCluster)
	}
	// Deal Proc handles to their cluster's pool, up to the admission
	// cap. Proc i belongs to cluster i mod C (numa.New's round-robin).
	for id := 0; id < cfg.Topo.MaxProcs(); id++ {
		p := cfg.Topo.Proc(id)
		pool := s.pools[p.Cluster()]
		if len(pool) < cap(pool) {
			pool <- p
		}
	}
	for c, pool := range s.pools {
		if len(pool) == 0 {
			return nil, fmt.Errorf("server: cluster %d has no procs to serve connections", c)
		}
	}
	return s, nil
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve runs one accept loop per cluster on ln and blocks until the
// server is shut down (returning nil once every connection has
// drained) or the listener fails (returning the accept error; open
// connections keep being served and still require Shutdown).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("server: already serving")
	}
	s.ln = ln
	s.mu.Unlock()

	errCh := make(chan error, len(s.pools))
	for c := range s.pools {
		s.acceptWG.Add(1)
		go s.acceptLoop(ln, c, errCh)
	}
	s.acceptWG.Wait()
	s.connWG.Wait()
	select {
	case err := <-errCh:
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if !draining {
			return err
		}
	default:
	}
	return nil
}

// acceptLoop is cluster's admission gate: it blocks until a Proc
// handle is free in the cluster's pool, then accepts one connection
// and hands both to a serving goroutine. No free Proc means no
// Accept call — admission control by back-pressuring the listen
// backlog rather than by accept-then-reject.
func (s *Server) acceptLoop(ln net.Listener, cluster int, errCh chan<- error) {
	defer s.acceptWG.Done()
	pool := s.pools[cluster]
	for {
		var p *numa.Proc
		select {
		case p = <-pool:
		case <-s.done:
			return
		}
		c, err := ln.Accept()
		if err != nil {
			s.pools[cluster] <- p
			select {
			case <-s.done: // Shutdown closed the listener
			default:
				errCh <- err
			}
			return
		}
		s.accepted.Add(1)
		s.active.Add(1)
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			c.Close()
			s.pools[cluster] <- p
			s.active.Add(-1)
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				c.Close()
				s.pools[cluster] <- p
				s.active.Add(-1)
				s.connWG.Done()
			}()
			s.serveConn(c, p)
		}()
	}
}

// Shutdown gracefully drains the server: stop accepting, nudge every
// connection's blocked read, let each connection finish the pipelined
// requests it has already read (flushing in-flight batches and
// writing their responses), then close. Connections still open after
// timeout are force-closed and counted in the returned error. Because
// responses are only ever written after the store call returns, no
// acknowledged write is lost by draining at any moment.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	s.drainFlag.Store(true)
	ln := s.ln
	close(s.done)
	// Wake reads blocked on idle connections; serveConn treats a
	// deadline error during drain as a clean goodbye.
	now := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(now)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	drained := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-time.After(timeout):
	}
	s.mu.Lock()
	forced := len(s.conns)
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-drained
	if forced > 0 {
		return fmt.Errorf("server: drain timeout, force-closed %d connections", forced)
	}
	return nil
}

// Snapshot returns current statistics.
func (s *Server) Snapshot() Stats {
	return Stats{
		Accepted:     s.accepted.Load(),
		Active:       uint64(max(s.active.Load(), 0)),
		Gets:         s.gets.Load(),
		Sets:         s.sets.Load(),
		Deletes:      s.deletes.Load(),
		Hits:         s.hits.Load(),
		Flushes:      s.flushes.Load(),
		BadRequests:  s.badRequests.Load(),
		EvictedConns: s.evictedConns.Load(),
		ClientGone:   s.clientGone.Load(),
	}
}

// pendingReq is one request of the pending run: how many of the run's
// keys it owns (one, unless it is a multi-key get), whether a get asked
// for the cas field, and whether a set or delete waived its answer. The
// requests answer in order even though their keys flush as one batch.
type pendingReq struct {
	n       int
	cas     bool
	noReply bool
}

// conn is the per-connection decode/flush state. All buffers are
// owned by exactly one goroutine; the Proc handle likewise.
type conn struct {
	srv *Server
	c   net.Conn
	p   *numa.Proc
	par *Parser
	w   *bufio.Writer

	// maxBatch is the flush bound of a pipelined same-verb run: the
	// store's MaxBatch, so a burst of N ops costs ceil(N/MaxBatch)
	// shard acquisitions.
	maxBatch int

	// The pending same-verb run, one verb at a time: its requests, and
	// the hashed key of every key they name. kind is only meaningful
	// while reqs is non-empty.
	kind Kind
	reqs []pendingReq
	keys []uint64
	// The run's key bytes, back to back: a get or set run hands them
	// to the store, which matches them on every hit, and VALUE lines
	// echo them (a delete run stays keyed by hash alone). Key i is
	// names[ends[i-1]:ends[i]]; refs holds those slices at flush.
	names []byte
	ends  []int
	refs  [][]byte
	// A set run's encoded values, each in the reused slot of its index.
	vals  [][]byte
	slots [][]byte

	dsts  [][]byte
	lens  []int
	found []bool

	// pendingBytes tracks the buffered key and value bytes of the
	// pending set run against the server's connMem, the hard
	// decode-memory bound; crossing it flushes early.
	pendingBytes int

	// Local op counters, folded into the server's atomics on close.
	gets, sets, deletes, hits, flushes, badRequests uint64

	// brokenCount sequences BrokenDropAckedWrite's every-fourth-set
	// violation (harness validation only).
	brokenCount uint64

	numBuf []byte
}

var crlf = []byte("\r\n")

// serveConn runs one connection's decode loop: parse, accumulate
// same-verb runs, flush a run when the verb changes, the run reaches
// the store's MaxBatch, or the reader has no more pipelined bytes.
// Responses for a run are written only after its store call returns.
func (s *Server) serveConn(nc net.Conn, p *numa.Proc) {
	mb := s.store.MaxBatch()
	c := &conn{
		srv:      s,
		c:        nc,
		p:        p,
		par:      NewParser(bufio.NewReaderSize(nc, readerBufBytes), Limits{MaxValueBytes: s.cfg.MaxValueBytes}),
		w:        bufio.NewWriterSize(nc, writerBufBytes),
		maxBatch: mb,
		reqs:     make([]pendingReq, 0, mb),
		keys:     make([]uint64, 0, mb),
		ends:     make([]int, 0, mb),
		refs:     make([][]byte, 0, mb),
		vals:     make([][]byte, 0, mb),
		slots:    make([][]byte, mb),
		dsts:     make([][]byte, mb),
		lens:     make([]int, mb),
		found:    make([]bool, mb),
		numBuf:   make([]byte, 0, 24),
	}
	defer c.fold()
	c.loop()
}

// fold drains the connection's local counters into the server totals.
// Called after every flush (so Snapshot tracks live traffic at batch
// granularity, not per-op atomics) and once more on close.
func (c *conn) fold() {
	s := c.srv
	drain(&s.gets, &c.gets)
	drain(&s.sets, &c.sets)
	drain(&s.deletes, &c.deletes)
	drain(&s.hits, &c.hits)
	drain(&s.flushes, &c.flushes)
	drain(&s.badRequests, &c.badRequests)
}

// drain moves a non-zero local count into its server total. A flush is
// one verb, so most of a fold's counters are zero, and adding zero is
// still a locked write to a line every connection shares.
func drain(total *atomic.Uint64, local *uint64) {
	if *local != 0 {
		total.Add(*local)
		*local = 0
	}
}

func (c *conn) loop() {
	var req Request
	for {
		// Block for the next request, with a fresh per-request read
		// deadline. Anything already pipelined into the buffer parses
		// without touching the deadline. The drain check comes after
		// arming the deadline (see drainFlag's ordering contract): a
		// draining server answers everything already read, then says
		// goodbye instead of blocking for more.
		if c.par.Buffered() == 0 {
			c.c.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout))
			if c.srv.drainFlag.Load() {
				c.flushOps()
				c.finish()
				return
			}
		}
		err := c.par.ParseRequest(&req)
		if err != nil {
			var pe *ProtoError
			if errors.As(err, &pe) {
				// The stream is still framed (or we are about to cut
				// it); earlier pipelined ops must answer first, in
				// order, then the owed error line.
				c.badRequests++
				c.flushOps()
				c.writeLine(pe.Line)
				if pe.Close {
					c.finish()
					return
				}
				c.maybeFlushWriter()
				continue
			}
			// Transport error or timeout. During drain a deadline
			// nudge is the expected wake-up: finish what was read,
			// answer it, close cleanly. Anything else closes too
			// (flushing what we owe, best-effort) and is classified:
			// deadline expiry is an eviction, a client breaking the
			// connection mid-frame is client-gone — a network/client
			// fault, not a protocol one.
			c.flushOps()
			c.finish()
			c.classifyDisconnect(err)
			return
		}
		switch req.Kind {
		case KindGet, KindSet, KindDelete:
			c.accumulate(&req)
		case KindVersion:
			c.flushOps()
			c.writeLine("VERSION " + DefaultVersion)
		case KindStats:
			c.flushOps()
			c.writeStats()
		case KindQuit:
			c.flushOps()
			c.finish()
			return
		}
		if len(c.keys) >= c.maxBatch || c.pendingBytes >= c.srv.connMem {
			c.flushOps()
		}
		if c.par.Buffered() == 0 {
			c.flushOps()
			c.maybeFlushWriter()
		}
	}
}

// accumulate adds req to the pending run, starting a new one if req
// is the first of its verb: a verb change flushes the previous run
// first, preserving the connection's response order (a set pipelined
// before a get is applied — and answered — before the get reads).
func (c *conn) accumulate(req *Request) {
	if len(c.reqs) > 0 && c.kind != req.Kind {
		c.flushOps()
	}
	c.kind = req.Kind
	c.reqs = append(c.reqs, pendingReq{n: len(req.Keys), cas: req.CAS, noReply: req.NoReply})
	for _, k := range req.Keys {
		c.keys = append(c.keys, HashKey(k))
		c.names = append(c.names, k...)
		c.ends = append(c.ends, len(c.names))
	}
	if req.Kind == KindSet {
		i := len(c.vals)
		c.slots[i] = encodeValue(c.slots[i], req.Flags, req.Value)
		c.vals = append(c.vals, c.slots[i])
		c.pendingBytes += len(req.Keys[0]) + 4 + len(req.Value)
	}
}

// finish flushes the response buffer and lets the caller close.
func (c *conn) finish() {
	c.c.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	c.w.Flush()
}

// classifyDisconnect attributes an abnormal connection end (outside a
// drain): a deadline expiry is an eviction the server chose, anything
// else — a reset, a disconnect mid-payload — is the client or network
// going away. Both are invisible in BadRequests, which counts only
// well-delivered, malformed frames.
func (c *conn) classifyDisconnect(err error) {
	if c.srv.drainFlag.Load() {
		return // the drain nudge: a goodbye, not a fault
	}
	var ne net.Error
	switch {
	case err == io.EOF:
		// Clean close at a request boundary: a normal goodbye.
	case errors.As(err, &ne) && ne.Timeout():
		c.srv.evictedConns.Add(1)
	default:
		c.srv.clientGone.Add(1)
	}
}

// maybeFlushWriter pushes buffered responses before the loop blocks
// on the socket again — the client is waiting on them to send more.
func (c *conn) maybeFlushWriter() {
	if c.w.Buffered() == 0 {
		return
	}
	c.c.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	if err := c.w.Flush(); err != nil {
		// A dead write side will surface on the next read too; no
		// separate handling needed.
		return
	}
}

// flushOps answers the pending run, the one place a run is answered:
// the run goes through the store's batch APIs and its answers follow,
// so STORED is only ever written after MSet returns.
func (c *conn) flushOps() {
	if len(c.reqs) == 0 {
		return
	}
	switch c.kind {
	case KindGet:
		c.flushGets()
	case KindSet:
		keys, names, vals := c.keys, c.nameRefs(), c.vals
		if c.srv.cfg.Broken == BrokenDropAckedWrite {
			keys, names, vals = c.brokenFilterSets(names)
		}
		c.srv.store.MSetNamed(c.p, keys, names, vals)
		c.sets += uint64(len(c.keys))
		c.flushes++
		for _, r := range c.reqs {
			if !r.noReply {
				c.writeLine("STORED")
			}
		}
	case KindDelete:
		found := c.found[:len(c.keys)]
		c.srv.store.MDeleteEach(c.p, c.keys, found)
		c.deletes += uint64(len(c.keys))
		c.flushes++
		for i, r := range c.reqs {
			if r.noReply {
				continue
			}
			if found[i] {
				c.writeLine("DELETED")
			} else {
				c.writeLine("NOT_FOUND")
			}
		}
	}
	c.reqs = c.reqs[:0]
	c.keys = c.keys[:0]
	c.names = c.names[:0]
	c.ends = c.ends[:0]
	c.vals = c.vals[:0]
	c.pendingBytes = 0
	c.fold()
}

// nameRefs slices the pending run's key names out of names, one per
// key, into refs.
func (c *conn) nameRefs() [][]byte {
	c.refs = c.refs[:0]
	at := 0
	for _, end := range c.ends {
		c.refs = append(c.refs, c.names[at:end])
		at = end
	}
	return c.refs
}

// brokenFilterSets implements BrokenDropAckedWrite: every fourth set
// on the connection is silently removed from the batch about to be
// applied, while the response path (which iterates reqs, untouched)
// still answers STORED for it. Exists solely so internal/soak's
// self-test can prove the chaos verifier catches a lost acknowledged
// write; never reachable in production configs.
func (c *conn) brokenFilterSets(names [][]byte) ([]uint64, [][]byte, [][]byte) {
	n := len(c.keys)
	keys, kept, vals := c.keys[:0:n], names[:0:n], c.vals[:0:n]
	for i := range n {
		c.brokenCount++
		if c.brokenCount%4 == 0 {
			continue
		}
		keys = append(keys, c.keys[i])
		kept = append(kept, names[i])
		vals = append(vals, c.vals[i])
	}
	return keys, kept, vals
}

// flushGets answers the pending get run request by request: each key's
// VALUE block if it hit, then END. A hit needs the stored name to equal
// the requested one, so two names colliding in HashKey miss on each
// other instead of answering with each other's bytes. Keys are fetched
// through MGetNamed in
// chunks of at most MaxBatch — matching the store's own per-critical-
// section bound, so a single-shard run of N keys costs exactly
// ceil(N/MaxBatch) acquisitions — the next chunk when the answer
// reaches it. Destination buffers are lazily grown slots reused across
// chunks and flushes.
func (c *conn) flushGets() {
	valCap := 4 + c.srv.cfg.MaxValueBytes
	// The response staging for one chunk is chunk×valCap of lazily
	// grown destination slots; keep that under the connection's decode
	// memory bound too (the default 8 MiB bound leaves the default
	// MaxBatch×64KiB window untouched).
	mb := min(c.maxBatch, max(1, c.srv.connMem/valCap))
	names := c.nameRefs()
	at, start, end := 0, 0, 0 // next key; its chunk
	for _, r := range c.reqs {
		for range r.n {
			if at == end {
				start, end = at, min(at+mb, len(c.keys))
				dsts := c.dsts[:end-start]
				for i := range dsts {
					if cap(dsts[i]) < valCap {
						dsts[i] = make([]byte, valCap)
					}
					dsts[i] = dsts[i][:valCap]
				}
				c.srv.store.MGetNamed(c.p, c.keys[start:end], names[start:end], dsts, c.lens[:end-start], c.found[:end-start])
				c.flushes++
			}
			if i := at - start; c.found[i] {
				c.hits++
				flags, val := decodeValue(c.dsts[i][:c.lens[i]])
				c.writeValue(names[at], flags, val, r.cas)
			}
			at++
		}
		c.writeLine("END")
	}
	c.gets += uint64(len(c.keys))
}

// writeValue emits one VALUE response block:
// "VALUE <key> <flags> <bytes>[ <cas>]\r\n<data>\r\n".
func (c *conn) writeValue(key []byte, flags uint32, val []byte, cas bool) {
	c.w.WriteString("VALUE ")
	c.w.Write(key)
	c.w.WriteByte(' ')
	c.writeUint(uint64(flags))
	c.w.WriteByte(' ')
	c.writeUint(uint64(len(val)))
	if cas {
		c.w.WriteByte(' ')
		c.writeUint(PseudoCAS(val))
	}
	c.w.Write(crlf)
	c.w.Write(val)
	c.w.Write(crlf)
}

func (c *conn) writeUint(v uint64) {
	c.numBuf = strconv.AppendUint(c.numBuf[:0], v, 10)
	c.w.Write(c.numBuf)
}

func (c *conn) writeLine(s string) {
	c.w.WriteString(s)
	c.w.Write(crlf)
}

// writeStats answers the stats command: "STAT <name> <value>" lines
// then END, the memcached shape. This is the wire-visible face of
// Snapshot: an external observer (kvsoak) reads the server's own
// accounting without a side channel into the process. Counters folded
// so far plus this
// connection's unfolded locals, so a single-connection observer sees
// its own traffic.
func (c *conn) writeStats() {
	c.fold() // fold locals first so the snapshot includes them
	st := c.srv.Snapshot()
	stat := func(name string, v uint64) {
		c.w.WriteString("STAT ")
		c.w.WriteString(name)
		c.w.WriteByte(' ')
		c.writeUint(v)
		c.w.Write(crlf)
	}
	stat("accepted", st.Accepted)
	stat("active", st.Active)
	stat("gets", st.Gets)
	stat("sets", st.Sets)
	stat("deletes", st.Deletes)
	stat("hits", st.Hits)
	stat("flushes", st.Flushes)
	stat("bad_requests", st.BadRequests)
	stat("client_gone", st.ClientGone)
	stat("evicted_conns", st.EvictedConns)
	c.writeLine("END")
}
