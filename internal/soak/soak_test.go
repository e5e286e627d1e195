package soak

import (
	"net"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/server"
)

// startServer runs an in-process kvserver on a loopback listener and
// returns its address plus a shutdown func that asserts a clean drain.
func startServer(t *testing.T, broken server.BrokenMode) (addr string, shutdown func() server.Stats) {
	t.Helper()
	topo := numa.New(1, 4)
	store := kvstore.New(kvstore.Config{
		Topo:    topo,
		Shards:  2,
		Locking: kvstore.FromMutex(func() locks.Mutex { return locks.NewPthread() }),
	})
	srv, err := server.New(server.Config{Topo: topo, Store: store, Broken: broken})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	return ln.Addr().String(), func() server.Stats {
		if err := srv.Shutdown(10 * time.Second); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
		return srv.Snapshot()
	}
}

// TestCleanRun is the false-positive guard: an undisturbed run against
// a correct server must report nothing at all.
func TestCleanRun(t *testing.T) {
	addr, shutdown := startServer(t, server.BrokenNone)
	res, err := Run(Options{
		Addr: addr, Conns: 2, Duration: 400 * time.Millisecond,
		Mix: 60, Keys: 16, ValSize: 64, Pipeline: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ps := res.Problems(); len(ps) != 0 {
		t.Fatalf("clean run reported problems: %v (result %+v)", ps, res)
	}
	if res.Ops == 0 || res.Hits == 0 {
		t.Fatalf("run did no observable work: %+v", res)
	}
	if res.Reconnects != 0 || res.Retries != 0 || res.IndeterminateOps != 0 {
		t.Fatalf("fault counters moved without faults: %+v", res)
	}
	if res.Server == nil {
		t.Fatal("stats poll failed against the server")
	}
	shutdown()
}

// TestChaosCleanRun drives the full chaos path — faultnet proxy, storm
// then recovery, reconnect/backoff, idempotent-only retries — against
// a CORRECT server and asserts the headline contract: faults injected
// (the schedule demonstrably fired, connections demonstrably died and
// came back), yet zero acked writes lost, zero verification errors,
// and the server drains clean with no leaked connections.
func TestChaosCleanRun(t *testing.T) {
	addr, shutdown := startServer(t, server.BrokenNone)
	storm := Storm{
		Seed:        7,
		Latency:     time.Millisecond,
		ShortReads:  0.3,
		ShortWrites: 0.3,
		FragmentGap: time.Millisecond,
		ResetProb:   0.05,
	}
	res, err := Run(Options{
		Addr: addr, Conns: 4, Duration: 1500 * time.Millisecond,
		Mix: 60, Keys: 16, ValSize: 64, Pipeline: 4, Seed: 7,
		Chaos: true, Storm: &storm, QuietTail: 50 * time.Millisecond,
		Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ps := res.Problems(); len(ps) != 0 {
		t.Fatalf("chaos run against a correct server reported: %v (result %+v)", ps, res)
	}
	if res.Faults.Resets == 0 {
		t.Fatalf("storm never cut a connection — chaos proved nothing: %+v", res.Faults)
	}
	if res.Reconnects == 0 {
		t.Fatalf("no reconnects despite %d injected resets: %+v", res.Faults.Resets, res)
	}
	if res.LostAckedWrites != 0 {
		t.Fatalf("lost acked writes on a correct server: %+v", res)
	}
	st := shutdown()
	if st.Active != 0 {
		t.Fatalf("connections leaked through the chaos run: %+v", st)
	}
}

// TestHarnessFlagsBrokenServer is the self-test discipline (the same
// locktest applies to broken locks): feed the harness a server that
// VIOLATES the ack contract — it acknowledges every fourth set
// without applying it — and require the run to be flagged. A harness
// that passes a broken server is not testing anything.
func TestHarnessFlagsBrokenServer(t *testing.T) {
	addr, shutdown := startServer(t, server.BrokenDropAckedWrite)
	res, err := Run(Options{
		Addr: addr, Conns: 2, Duration: 600 * time.Millisecond,
		Mix: 50, Keys: 8, ValSize: 64, Pipeline: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LostAckedWrites == 0 {
		t.Fatalf("harness failed to flag a server that drops acked writes: %+v", res)
	}
	if ps := res.Problems(); len(ps) == 0 {
		t.Fatal("Problems() empty against a broken server")
	}
	shutdown()
}

// TestFetchStatsRefusesEmptyDump checks both sides of the stats
// shape: a real server's dump parses, and a bare END with no STAT
// line is refused rather than read as zero counters.
func TestFetchStatsRefusesEmptyDump(t *testing.T) {
	addr, shutdown := startServer(t, server.BrokenNone)
	if _, err := FetchStats(addr); err != nil {
		t.Errorf("FetchStats against kvserver: %v", err)
	}
	shutdown()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Read(make([]byte, 64))
		c.Write([]byte("END\r\n"))
	}()
	if _, err := FetchStats(ln.Addr().String()); err == nil {
		t.Error("FetchStats accepted a stats dump with no STAT line")
	}
}
