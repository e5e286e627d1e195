// Command kvsoak drives a kvserver (or any memcached text server)
// over a real TCP socket: a sustained mixed get/set load at a target
// rate and concurrency, reporting achieved ops/sec and error counts.
// The engine is internal/soak; this command is flags, JSON, and the
// client-side GC bracket.
//
// Every connection owns a disjoint key slice and pipelines -pipeline
// operations per socket write, so the soak exercises exactly the
// server's batched decode path. Each worker verifies get responses
// against its own issue history: a payload that was never issued, or
// one OLDER than a set the server acknowledged, fails the run (the
// latter is a lost acked write — the violation no drain or fault may
// cause). Misses stay legal: the server's store may evict.
//
// Workers survive connection cuts: reconnect with capped exponential
// backoff plus jitter, retrying only idempotent operations (gets);
// sets whose ack never arrived are recorded as indeterminate and never
// double-counted.
//
// -chaos interposes an internal/faultnet TCP proxy and runs the storm
// schedule (latency, short reads/writes, mid-frame resets, stalls) for
// 60% of the duration, then clears the faults for the recovery tail,
// and finally polls the server's stats verb for its own accounting.
// -chaos-seed reproduces a fault placement.
//
// -json emits the result record: op/verification counts, the new
// retries / indeterminate_ops / lost_acked_writes fields, injected-fault counters, the server's stats dump, and the
// client's own collector pressure (allocs per op, GC pause total and
// cycle count bracketed around the soak window).
//
// -check replaces the soak with a scripted byte-exact session (set,
// get, gets, multi-key pipelined get, delete, version) asserting every
// response byte; CI uses it as the protocol conformance gate. -check
// retries the first dial briefly so it can race a just-started server.
//
// Exit status: 0 on a clean run, 1 on any verification error or lost
// acknowledged write, 2 on operational failure (bad flags, cannot
// connect).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/server"
	"repro/internal/soak"
)

func main() {
	var (
		addrFlag     = flag.String("addr", "127.0.0.1:11211", "server address")
		connsFlag    = flag.Int("conns", 4, "concurrent connections")
		rpsFlag      = flag.Int("rps", 0, "target operations per second across all connections (0 = unthrottled)")
		durationFlag = flag.Duration("duration", 2*time.Second, "soak duration")
		mixFlag      = flag.Int("mix", 90, "get percentage of the operation mix")
		keysFlag     = flag.Int("keys", 1000, "distinct keys per connection")
		valsizeFlag  = flag.Int("valsize", 64, "value size in bytes (minimum 48: payloads embed a verification header)")
		pipeFlag     = flag.Int("pipeline", 8, "operations pipelined per socket write")
		checkFlag    = flag.Bool("check", false, "run the scripted byte-exact protocol session instead of the soak")
		chaosFlag    = flag.Bool("chaos", false, "run the load through a fault-injecting proxy: storm phase then recovery, asserting no acked write is lost")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for the chaos fault schedule (reproduces a fault placement)")
		jsonFlag     = flag.Bool("json", false, "emit the result as JSON")
	)
	flag.Parse()
	const tool = "kvsoak"

	if *checkFlag {
		if err := runCheck(*addrFlag); err != nil {
			fmt.Fprintf(os.Stderr, "kvsoak: check failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("kvsoak: protocol check passed")
		return
	}

	opt := soak.Options{
		Addr:     *addrFlag,
		Conns:    *connsFlag,
		RPS:      *rpsFlag,
		Duration: *durationFlag,
		Mix:      *mixFlag,
		Keys:     *keysFlag,
		ValSize:  *valsizeFlag,
		Pipeline: *pipeFlag,
		Seed:     *chaosSeed,
		Chaos:    *chaosFlag,
	}
	if !*jsonFlag {
		opt.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "kvsoak: "+format+"\n", args...)
		}
	}

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	res, err := soak.Run(opt)
	if err != nil {
		cli.Die(tool, err)
	}
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	out := result{
		Result:    res,
		GCPauseMs: float64(msAfter.PauseTotalNs-msBefore.PauseTotalNs) / 1e6,
		GCCycles:  msAfter.NumGC - msBefore.NumGC,
	}
	if res.Ops > 0 {
		out.AllocsPerOp = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(res.Ops)
	}

	problems := res.Problems()
	if *jsonFlag {
		json.NewEncoder(os.Stdout).Encode(out)
	} else {
		fmt.Printf("kvsoak: %d conns %.1fs: %d ops (%d gets, %d hits, %d sets) %.0f ops/s, %d errors, %d dropped\n",
			opt.Conns, res.Seconds, res.Ops, res.Gets, res.Hits, res.Sets, res.OpsPerSec, res.Errors, res.Dropped)
		if *chaosFlag {
			fmt.Printf("kvsoak: chaos: %d resets, %d reconnects, %d retries, %d indeterminate, %d lost acked writes\n",
				res.Faults.Resets, res.Reconnects, res.Retries, res.IndeterminateOps, res.LostAckedWrites)
			if res.Server != nil {
				fmt.Printf("kvsoak: server: %d evicted conns, %d client-gone\n",
					res.Server.EvictedConns, res.Server.ClientGone)
			}
		}
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "kvsoak: FAIL: %s\n", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

// result is the -json shape: the soak engine's record plus the
// client-side MemStats bracket, so a socket soak exposes the
// *client's* GC pressure end to end; the server's sits in its own
// process.
type result struct {
	soak.Result
	// AllocsPerOp is Go heap allocations per completed operation over
	// the window; GCPauseMs and GCCycles are the total stop-the-world
	// pause and collection count the window absorbed.
	AllocsPerOp float64 `json:"allocs_per_op"`
	GCPauseMs   float64 `json:"gc_pause_ms"`
	GCCycles    uint32  `json:"gc_cycles"`
}

// dial connects with brief retries, so check runs can race a server
// that is still binding its listener.
func dial(addr string) (net.Conn, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("connecting to %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// runCheck is the scripted byte-exact protocol session: each exchange
// must come back byte for byte, including the multi-key pipelined get
// and the per-request END framing. It is the conformance gate CI runs
// against a freshly started server.
func runCheck(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	exchange := func(send, want string) error {
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write([]byte(send)); err != nil {
			return fmt.Errorf("write %q: %w", send, err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(c, got); err != nil {
			return fmt.Errorf("response to %q: %w (got %q)", send, err, got)
		}
		if string(got) != want {
			return fmt.Errorf("response to %q:\n got  %q\n want %q", send, got, want)
		}
		return nil
	}

	cas := server.PseudoCAS([]byte("hello"))
	steps := []struct{ send, want string }{
		{"version\r\n", "VERSION " + server.DefaultVersion + "\r\n"},
		{"set chk:a 7 0 5\r\nhello\r\n", "STORED\r\n"},
		{"get chk:a\r\n", "VALUE chk:a 7 5\r\nhello\r\nEND\r\n"},
		{"gets chk:a\r\n", fmt.Sprintf("VALUE chk:a 7 5 %d\r\nhello\r\nEND\r\n", cas)},
		{"set chk:b 0 0 2\r\nbb\r\n", "STORED\r\n"},
		// Multi-key pipelined burst in one write: responses in request
		// order, per-request END framing.
		{"get chk:a chk:b chk:miss\r\nget chk:b\r\ndelete chk:b\r\nget chk:b\r\n",
			"VALUE chk:a 7 5\r\nhello\r\nVALUE chk:b 0 2\r\nbb\r\nEND\r\n" +
				"VALUE chk:b 0 2\r\nbb\r\nEND\r\n" +
				"DELETED\r\n" +
				"END\r\n"},
		{"delete chk:b\r\n", "NOT_FOUND\r\n"},
		{"set chk:a 0 0 3 noreply\r\nnew\r\nget chk:a\r\n", "VALUE chk:a 0 3\r\nnew\r\nEND\r\n"},
		{"bogus\r\n", "ERROR\r\n"},
		{"get chk:a\r\n", "VALUE chk:a 0 3\r\nnew\r\nEND\r\n"},
		{"delete chk:a\r\n", "DELETED\r\n"},
	}
	for _, s := range steps {
		if err := exchange(s.send, s.want); err != nil {
			return err
		}
	}
	// quit must answer EOF, not an error line.
	if _, err := c.Write([]byte("quit\r\n")); err != nil {
		return err
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Read(make([]byte, 1)); err != io.EOF {
		return fmt.Errorf("after quit: %d bytes, err %v; want EOF", n, err)
	}
	// The stats verb must answer STAT lines then END (values vary). It
	// runs on its own connection once the session's is closed, so a
	// server that admits one connection at a time passes too.
	c.Close()
	_, err = soak.FetchStats(addr)
	return err
}
