package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
)

func newTestStore(topo *numa.Topology, shards, maxBatch int) *kvstore.Store {
	return kvstore.New(kvstore.Config{
		Topo:     topo,
		Shards:   shards,
		MaxBatch: maxBatch,
		Locking:  kvstore.FromMutex(func() locks.Mutex { return locks.NewPthread() }),
	})
}

// storeSet sets key directly in the store, named as the server names
// its sets, so a get over the wire hits it.
func storeSet(store *kvstore.Store, p *numa.Proc, key string, flags uint32, val []byte) {
	store.MSetNamed(p, []uint64{HashKey(key)}, [][]byte{[]byte(key)}, [][]byte{encodeValue(nil, flags, val)})
}

// startServer runs srv on a loopback listener and returns the dial
// address plus a channel carrying Serve's return value.
func startServer(t *testing.T, srv *Server) (string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return ln.Addr().String(), serveErr
}

// exchange writes send and requires the next len(want) response bytes
// to equal want exactly — the byte-exactness bar for the protocol.
func exchange(t *testing.T, c net.Conn, send, want string) {
	t.Helper()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte(send)); err != nil {
		t.Fatalf("write %q: %v", send, err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("reading response to %q: %v (got %q so far)", send, err, got)
	}
	if string(got) != want {
		t.Fatalf("response to %q:\n got  %q\n want %q", send, got, want)
	}
}

// TestServerRoundTrip scripts a client session over a real TCP socket
// and requires byte-exact responses, including a multi-key pipelined
// burst answered in order with one write.
func TestServerRoundTrip(t *testing.T) {
	topo := numa.New(2, 4)
	srv, err := New(Config{Topo: topo, Store: newTestStore(topo, 4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	exchange(t, c, "set foo 7 0 5\r\nhello\r\n", "STORED\r\n")
	exchange(t, c, "get foo\r\n", "VALUE foo 7 5\r\nhello\r\nEND\r\n")
	cas := PseudoCAS([]byte("hello"))
	exchange(t, c, "gets foo bar\r\n",
		fmt.Sprintf("VALUE foo 7 5 %d\r\nhello\r\nEND\r\n", cas))
	exchange(t, c, "get miss1 miss2\r\n", "END\r\n")
	// noreply suppresses the ack but not the effect.
	exchange(t, c, "set q 1 0 2 noreply\r\nqq\r\nget q\r\n",
		"VALUE q 1 2\r\nqq\r\nEND\r\n")

	// One pipelined write crossing verbs: responses must come back in
	// request order with per-request END framing.
	exchange(t, c,
		"set x 0 0 1\r\n1\r\nget x\r\nget x foo\r\ndelete x\r\nget x\r\n",
		"STORED\r\n"+
			"VALUE x 0 1\r\n1\r\nEND\r\n"+
			"VALUE x 0 1\r\n1\r\nVALUE foo 7 5\r\nhello\r\nEND\r\n"+
			"DELETED\r\n"+
			"END\r\n")

	exchange(t, c, "delete foo\r\n", "DELETED\r\n")
	exchange(t, c, "delete foo\r\n", "NOT_FOUND\r\n")
	exchange(t, c, "version\r\n", "VERSION "+DefaultVersion+"\r\n")

	// Protocol errors answer their line and keep the stream in frame
	// sync (the oversized value is swallowed, not left in the pipe).
	exchange(t, c, "frobnicate\r\n", "ERROR\r\n")
	big := strings.Repeat("v", DefaultMaxValueBytes+1)
	exchange(t, c, "set big 0 0 "+fmt.Sprint(len(big))+"\r\n"+big+"\r\n",
		"SERVER_ERROR object too large for cache\r\n")
	exchange(t, c, "get q\r\n", "VALUE q 1 2\r\nqq\r\nEND\r\n")

	// quit drains the connection: EOF, not an error line.
	if _, err := c.Write([]byte("quit\r\n")); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after quit: read %d bytes, err %v; want EOF", n, err)
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	st := srv.Snapshot()
	if st.Accepted != 1 || st.Sets != 3 || st.BadRequests != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Gets == 0 || st.Hits == 0 || st.Deletes != 3 || st.Flushes == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// collidingA and collidingB are distinct keys with one HashKey.
const (
	collidingA = "93f871770643c125"
	collidingB = "21adcbb594f9b5cd"
)

// TestCollidingKeysAnswerMiss pins that the server never answers one
// key with another key's bytes: the store is keyed by HashKey, so two
// names colliding in it land on one item, and a get of the name that
// did not set the item must miss — for get, gets and a multi-key get —
// without counting a hit.
func TestCollidingKeysAnswerMiss(t *testing.T) {
	if HashKey(collidingA) != HashKey(collidingB) {
		t.Fatalf("HashKey(%q) = %#x and HashKey(%q) = %#x no longer collide",
			collidingA, HashKey(collidingA), collidingB, HashKey(collidingB))
	}
	topo := numa.New(1, 2)
	srv, err := New(Config{Topo: topo, Store: newTestStore(topo, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a := "VALUE " + collidingA + " 0 6\r\nsecret\r\n"
	exchange(t, c, "set "+collidingA+" 0 0 6\r\nsecret\r\n", "STORED\r\n")
	exchange(t, c, "get "+collidingB+"\r\n", "END\r\n")
	exchange(t, c, "gets "+collidingB+"\r\n", "END\r\n")
	exchange(t, c, "get "+collidingB+" "+collidingA+" "+collidingB+"\r\n", a+"END\r\n")
	exchange(t, c, "get "+collidingA+"\r\n", a+"END\r\n")
	// The twin's set takes the item over, and the first name misses.
	exchange(t, c, "set "+collidingB+" 0 0 5\r\nother\r\n", "STORED\r\n")
	exchange(t, c, "get "+collidingA+" "+collidingB+"\r\n", "VALUE "+collidingB+" 0 5\r\nother\r\nEND\r\n")

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if st := srv.Snapshot(); st.Gets != 8 || st.Hits != 3 {
		t.Fatalf("gets/hits = %d/%d, want 8/3: a colliding miss counted as a hit", st.Gets, st.Hits)
	}
}

// TestPipelinedBatchAcquisitions is the amortization proof: a
// pipelined burst of N operations on a single-shard store with
// MaxBatch B costs exactly ceil(N/B) lock acquisitions — not N — for
// both a multi-key get and a run of pipelined sets. net.Pipe plus a
// direct serveConn call keeps the burst deterministic: one client
// Write lands in the connection's 16 KiB decode buffer whole, so the
// server sees all N operations before it ever blocks for input.
func TestPipelinedBatchAcquisitions(t *testing.T) {
	const (
		maxBatch = 16
		n        = 64
	)
	topo := numa.New(1, 2)
	var acq atomic.Uint64
	store := kvstore.New(kvstore.Config{
		Topo:     topo,
		Shards:   1,
		MaxBatch: maxBatch,
		Locking: kvstore.FromMutex(func() locks.Mutex {
			return locks.CountAcquisitions(locks.NewPthread(), &acq)
		}),
	})
	srv, err := New(Config{Topo: topo, Store: store})
	if err != nil {
		t.Fatal(err)
	}

	// Populate through the store so the get burst is all hits.
	p := topo.Proc(0)
	for i := 0; i < n; i++ {
		storeSet(store, p, fmt.Sprintf("k%02d", i), 0, []byte("val"))
	}

	client, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(serverSide, topo.Proc(1))
	}()
	client.SetDeadline(time.Now().Add(10 * time.Second))
	rd := bufio.NewReader(client)

	// Burst 1: one multi-key get naming all n keys.
	var get strings.Builder
	get.WriteString("get")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&get, " k%02d", i)
	}
	get.WriteString("\r\n")
	before := acq.Load()
	if _, err := client.Write([]byte(get.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		line, err := rd.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "VALUE k") {
			t.Fatalf("line %d: %q, %v", i, line, err)
		}
		if _, err := rd.ReadString('\n'); err != nil { // data line
			t.Fatal(err)
		}
	}
	if line, err := rd.ReadString('\n'); err != nil || line != "END\r\n" {
		t.Fatalf("terminator: %q, %v", line, err)
	}
	if got := acq.Load() - before; got != n/maxBatch {
		t.Fatalf("get burst of %d keys cost %d acquisitions, want ceil(%d/%d) = %d",
			n, got, n, maxBatch, n/maxBatch)
	}

	// Burst 2: n pipelined sets in a single write.
	var sets strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sets, "set s%02d 0 0 3\r\nv%02d\r\n", i, i)
	}
	before = acq.Load()
	if _, err := client.Write([]byte(sets.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if line, err := rd.ReadString('\n'); err != nil || line != "STORED\r\n" {
			t.Fatalf("set ack %d: %q, %v", i, line, err)
		}
	}
	if got := acq.Load() - before; got != n/maxBatch {
		t.Fatalf("set burst of %d ops cost %d acquisitions, want %d",
			n, got, n/maxBatch)
	}

	client.Close()
	<-done
}

// TestPipelinedBurstIsOneFlush pins the flush bound at the store's
// MaxBatch: a burst of 32 single-key gets, well under the default
// bound of 64, is one flush and one acquisition on every round — the
// bound does not move with observed service time.
func TestPipelinedBurstIsOneFlush(t *testing.T) {
	const (
		burst  = 32
		rounds = 40
	)
	topo := numa.New(1, 2)
	var acq atomic.Uint64
	store := kvstore.New(kvstore.Config{
		Topo:   topo,
		Shards: 1,
		Locking: kvstore.FromMutex(func() locks.Mutex {
			return locks.CountAcquisitions(locks.NewPthread(), &acq)
		}),
	})
	if store.MaxBatch() < burst {
		t.Fatalf("default MaxBatch %d below the burst %d", store.MaxBatch(), burst)
	}
	srv, err := New(Config{Topo: topo, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var gets strings.Builder
	for i := 0; i < burst; i++ {
		key := fmt.Sprintf("k%02d", i)
		storeSet(store, topo.Proc(0), key, 0, []byte("val"))
		fmt.Fprintf(&gets, "get %s\r\n", key)
	}

	client, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(serverSide, topo.Proc(1))
	}()
	client.SetDeadline(time.Now().Add(10 * time.Second))
	rd := bufio.NewReader(client)
	for r := 0; r < rounds; r++ {
		acqBefore, flushesBefore := acq.Load(), srv.Snapshot().Flushes
		if _, err := client.Write([]byte(gets.String())); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3*burst; i++ { // VALUE, data, END per request
			if _, err := rd.ReadString('\n'); err != nil {
				t.Fatalf("round %d line %d: %v", r, i, err)
			}
		}
		if got := acq.Load() - acqBefore; got != 1 {
			t.Fatalf("round %d: burst of %d gets cost %d acquisitions, want 1", r, burst, got)
		}
		if got := srv.Snapshot().Flushes - flushesBefore; got != 1 {
			t.Fatalf("round %d: burst of %d gets took %d flushes, want 1", r, burst, got)
		}
	}
	client.Close()
	<-done
}

// TestGracefulShutdown drives concurrent writers through a drain and
// proves the headline guarantee: every write the server acknowledged
// with STORED is in the store afterwards, and the drain itself is
// clean (no forced closes, Serve returns nil).
func TestGracefulShutdown(t *testing.T) {
	topo := numa.New(2, 4)
	store := newTestStore(topo, 4, 0)
	srv, err := New(Config{Topo: topo, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)

	const writers = 3
	lastAcked := make([]atomic.Int64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			ack := make([]byte, len("STORED\r\n"))
			for seq := int64(1); ; seq++ {
				req := fmt.Sprintf("set drain%d 0 0 8\r\n%08d\r\n", w, seq)
				if _, err := c.Write([]byte(req)); err != nil {
					return
				}
				if _, err := io.ReadFull(c, ack); err != nil || string(ack) != "STORED\r\n" {
					return
				}
				lastAcked[w].Store(seq)
			}
		}(w)
	}

	// Let every writer get going (a fixed count of sets can be reached
	// by the first writers alone before the last has connected), then
	// drain mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for w := 0; w < writers; {
		if lastAcked[w].Load() > 0 {
			w++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer %d got no ack within 10s", w)
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()

	// Every acknowledged write must be durable. The stored value may be
	// NEWER than the last acked one (a response can be lost in flight
	// after the store applied the write) but never older.
	p := topo.Proc(0)
	dst := make([]byte, 64)
	for w := 0; w < writers; w++ {
		want := lastAcked[w].Load()
		if want == 0 {
			t.Fatalf("writer %d never got an ack — test proved nothing", w)
		}
		nb, ok := store.Get(p, HashKey(fmt.Sprintf("drain%d", w)), dst)
		if !ok {
			t.Fatalf("writer %d: acked key missing after drain", w)
		}
		_, val := decodeValue(dst[:nb])
		var got int64
		fmt.Sscanf(string(val), "%d", &got)
		if got < want {
			t.Fatalf("writer %d: store holds seq %d, but seq %d was acknowledged", w, got, want)
		}
	}
	if srv.Snapshot().Active != 0 {
		t.Fatalf("connections still active after drain: %+v", srv.Snapshot())
	}
}

// TestAdmissionCap pins the Proc-pool admission gate: with a
// one-connection cap the second client is not served until the first
// releases its Proc — back-pressure via the listen backlog, not
// accept-then-reject.
func TestAdmissionCap(t *testing.T) {
	topo := numa.New(1, 2)
	srv, err := New(Config{Topo: topo, Store: newTestStore(topo, 1, 0), ConnsPerCluster: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)

	c1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, c1, "version\r\n", "VERSION "+DefaultVersion+"\r\n")

	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("version\r\n")); err != nil {
		t.Fatal(err)
	}
	c2.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	if n, err := c2.Read(make([]byte, 1)); err == nil {
		t.Fatalf("second connection served (%d bytes) despite full admission pool", n)
	}

	// Releasing the first connection's Proc admits the second.
	c1.Close()
	c2.SetReadDeadline(time.Now().Add(5 * time.Second))
	want := "VERSION " + DefaultVersion + "\r\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c2, got); err != nil || string(got) != want {
		t.Fatalf("after release: %q, %v", got, err)
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	st := srv.Snapshot()
	if st.Accepted != 2 {
		t.Fatalf("Accepted = %d, want 2", st.Accepted)
	}
}

// TestConnectionsShareOneKeyspace is the wire-level statement of one
// keyspace: with both clusters' proc pools full, connections pinned to
// different clusters take turns overwriting one key, and afterwards
// every connection reads the last acknowledged write.
func TestConnectionsShareOneKeyspace(t *testing.T) {
	const conns = 8
	topo := numa.New(2, conns)
	srv, err := New(Config{Topo: topo, Store: newTestStore(topo, 4, 0)})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)

	// Each cluster admits at most its 4 procs' worth of connections, so
	// once all 8 are served both pools are full: 4 connections on each
	// cluster.
	cs := make([]net.Conn, conns)
	for i := range cs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		exchange(t, c, "version\r\n", "VERSION "+DefaultVersion+"\r\n")
		cs[i] = c
	}
	for i, c := range cs {
		exchange(t, c, fmt.Sprintf("set k 0 0 2\r\nv%d\r\n", i), "STORED\r\n")
	}
	last := fmt.Sprintf("VALUE k 0 2\r\nv%d\r\nEND\r\n", conns-1)
	for _, c := range cs {
		exchange(t, c, "get k\r\n", last)
	}

	if got := srv.Snapshot().Accepted; got != conns {
		t.Fatalf("Accepted = %d, want %d", got, conns)
	}
	for _, c := range cs {
		c.Close()
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// readStats issues the stats command and parses the STAT dump.
func readStats(t *testing.T, c net.Conn) map[string]int64 {
	t.Helper()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte("stats\r\n")); err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(c)
	out := make(map[string]int64)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("reading stats: %v", err)
		}
		line = strings.TrimSuffix(line, "\r\n")
		if line == "END" {
			return out
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "STAT" {
			t.Fatalf("malformed stats line %q", line)
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			t.Fatalf("stats line %q: %v", line, err)
		}
		out[f[1]] = v
	}
}

// TestStatsCommand pins the wire-visible stats dump — the face of
// Snapshot an external client reads — key for key, including that the
// issuing connection's own unfolded traffic is in the numbers.
func TestStatsCommand(t *testing.T) {
	topo := numa.New(1, 2)
	srv, err := New(Config{Topo: topo, Store: newTestStore(topo, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	exchange(t, c, "set s 0 0 2\r\nok\r\n", "STORED\r\n")
	st := readStats(t, c)
	want := map[string]int64{
		"accepted":      1,
		"active":        1,
		"gets":          0,
		"sets":          1,
		"deletes":       0,
		"hits":          0,
		"flushes":       1,
		"bad_requests":  0,
		"client_gone":   0,
		"evicted_conns": 0,
	}
	if len(st) != len(want) {
		t.Fatalf("stats dump has %d keys, want exactly %d: %v", len(st), len(want), st)
	}
	for k, v := range want {
		got, ok := st[k]
		if !ok {
			t.Fatalf("stats dump missing %q: %v", k, st)
		}
		if got != v {
			t.Fatalf("stats[%q] = %d, want %d (dump %v)", k, got, v, st)
		}
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestDisconnectClassification pins the fault taxonomy: a client
// vanishing mid-payload is ClientGone (network/client fault), an idle
// client cut by the read deadline is EvictedConns (the server's
// choice), a clean close is neither, and none of them are
// BadRequests (reserved for well-delivered, malformed frames).
func TestDisconnectClassification(t *testing.T) {
	topo := numa.New(1, 4)
	srv, err := New(Config{
		Topo:        topo,
		Store:       newTestStore(topo, 1, 0),
		ReadTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveErr := startServer(t, srv)

	waitFor := func(what string, pred func(Stats) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !pred(srv.Snapshot()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never observed: %+v", what, srv.Snapshot())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Mid-payload disconnect: 3 of a declared 10 bytes, then gone.
	gone, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gone.Write([]byte("set k 0 0 10\r\nabc")); err != nil {
		t.Fatal(err)
	}
	gone.Close()
	waitFor("ClientGone", func(st Stats) bool { return st.ClientGone == 1 })

	// Idle past the read deadline: evicted.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	waitFor("EvictedConns", func(st Stats) bool { return st.EvictedConns == 1 })

	// Clean close after a served request: no fault of any kind.
	clean, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, clean, "version\r\n", "VERSION "+DefaultVersion+"\r\n")
	clean.Close()
	waitFor("clean close", func(st Stats) bool { return st.Active == 0 })

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	st := srv.Snapshot()
	if st.ClientGone != 1 || st.EvictedConns != 1 || st.BadRequests != 0 {
		t.Fatalf("classification: %+v", st)
	}
}
