// Command kvserver serves the store over a pipelined memcached text
// protocol (get/gets multi-key, set, delete, version, quit) — the
// paper's workload shape driven over a real socket instead of an
// in-process load generator.
//
// The engine underneath is the full stack the previous exhibits
// measured: a sharded store guarded by any registry lock (-lock takes
// the same names as kvbench, combining comb-a-* executors included),
// cluster-affine shard placement, and the batched MGet/MSet/MDelete
// APIs. Under a combining lock (comb-a-*) a background sampler tracks
// peak per-shard combiner occupancy, reported in the final stats
// line. One accept loop runs per simulated
// NUMA cluster; every admitted connection owns one of that cluster's
// proc handles for its lifetime, so a connection's pipelined requests
// flush into the store as batches costing ceil(N/MaxBatch) shard
// acquisitions. -conns-per-cluster caps admission per cluster (the
// concurrency-restriction idea applied at the front door: excess
// clients wait in the listen backlog, not in the lock queue).
//
// -adaptive-admission makes that cap track the sampled occupancy with
// hysteresis: sustained overload past -busy-threshold halves the
// effective cap, acute overload at twice the threshold sheds flushes
// with "SERVER_ERROR busy" and escalates per-op deadlines against
// stalled clients, and sustained clearance restores the cap one step
// at a time (DESIGN.md §8). The stats verb exposes the cap, its
// low-water mark, and the shed/eviction counters on the wire.
//
// SIGINT/SIGTERM drains gracefully: stop accepting, let every
// connection answer the requests it has already read, flush in-flight
// batches, then close. -drain-timeout bounds the wait; connections
// still open after it are force-closed and the exit status is nonzero.
// No acknowledged write is lost at any drain point — responses are
// only written after the store call returns.
//
// Drive it with cmd/kvsoak (or any memcached text client).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/kvstore"
	"repro/internal/numa"
	"repro/internal/server"
)

func main() {
	var (
		addrFlag     = flag.String("addr", "127.0.0.1:11211", "TCP listen address")
		lockFlag     = flag.String("lock", "c-bo-mcs", "shard lock from the registry (same names as kvbench -locks)")
		shardsFlag   = flag.Int("shards", 8, "store shards")
		placeFlag    = flag.String("placement", "affine", "shard placement: hashmod or affine")
		clustersFlag = flag.Int("clusters", 4, "NUMA clusters to simulate")
		procsFlag    = flag.Int("procs", runtime.GOMAXPROCS(0), "proc handles in the topology (bounds total admitted connections)")
		connsFlag    = flag.Int("conns-per-cluster", 0, "admitted connections per cluster (default: the cluster's proc count)")
		capFlag      = flag.Int("capacity", 1<<20, "store item capacity (LRU evicts beyond it)")
		maxvalFlag   = flag.Int("maxval", server.DefaultMaxValueBytes, "largest accepted value in bytes")
		maxbatchFlag = flag.Int("maxbatch", 0, "ops per critical section, and so per pipelined flush (default: the store's, 64)")
		readTOFlag   = flag.Duration("read-timeout", 0, "per-request read deadline (default 2m)")
		writeTOFlag  = flag.Duration("write-timeout", 0, "per-flush write deadline (default 30s)")
		drainFlag    = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound before force-closing connections")
		adaptiveFlag = flag.Bool("adaptive-admission", false, "track the per-cluster admission cap against sampled combining occupancy, shedding ops under acute overload (needs a comb-a-* -lock)")
		busyFlag     = flag.Int("busy-threshold", 0, "sampled per-shard occupancy counted as overload (default: half the proc count, minimum 2)")
	)
	flag.Parse()
	const tool = "kvserver"

	if err := cli.Positive("shards", *shardsFlag); err != nil {
		cli.Die(tool, err)
	}
	if err := cli.Positive("clusters", *clustersFlag); err != nil {
		cli.Die(tool, err)
	}
	if *procsFlag < *clustersFlag {
		cli.Dief(tool, "-procs %d below -clusters %d: every cluster needs a proc to serve connections", *procsFlag, *clustersFlag)
	}
	placement, err := cli.Placement(*placeFlag)
	if err != nil {
		cli.Die(tool, err)
	}

	topo := numa.New(*clustersFlag, *procsFlag)
	locking, err := kvstore.FromRegistry(topo, *lockFlag)
	if err != nil {
		cli.Die(tool, err)
	}
	store := kvstore.New(kvstore.Config{
		Topo:      topo,
		Locking:   locking,
		Shards:    *shardsFlag,
		Placement: placement,
		Capacity:  *capFlag,
		MaxBatch:  *maxbatchFlag,
	})
	srv, err := server.New(server.Config{
		Topo:              topo,
		Store:             store,
		ConnsPerCluster:   *connsFlag,
		MaxValueBytes:     *maxvalFlag,
		ReadTimeout:       *readTOFlag,
		WriteTimeout:      *writeTOFlag,
		AdaptiveAdmission: *adaptiveFlag,
		BusyThreshold:     *busyFlag,
	})
	if err != nil {
		cli.Die(tool, err)
	}
	if *adaptiveFlag && !srv.OccupancyTracked() {
		fmt.Fprintf(os.Stderr, "kvserver: warning: -adaptive-admission is inert under -lock %s — no occupancy estimator; use a combining lock (comb-a-*)\n", *lockFlag)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shutdownErr := make(chan error, 1)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "kvserver: %v — draining (timeout %v)\n", s, *drainFlag)
		shutdownErr <- srv.Shutdown(*drainFlag)
	}()

	fmt.Fprintf(os.Stderr, "kvserver: %s on %s — lock=%s shards=%d placement=%s clusters=%d conns/cluster<=%d\n",
		server.DefaultVersion, *addrFlag, *lockFlag, *shardsFlag, placement, *clustersFlag, srv.Snapshot().AdmissionCapFull)
	serveErr := srv.ListenAndServe(*addrFlag)

	st := srv.Snapshot()
	// Occupancy only exists for combining locks; "-" keeps the line
	// shape stable for everything else.
	occ := "-"
	if st.MaxOccupancy >= 0 {
		occ = fmt.Sprint(st.MaxOccupancy)
	}
	fmt.Fprintf(os.Stderr, "kvserver: served %d connections, %d gets (%d hits), %d sets, %d deletes, %d flushes, %d bad requests, peak occupancy %s\n",
		st.Accepted, st.Gets, st.Hits, st.Sets, st.Deletes, st.Flushes, st.BadRequests, occ)
	fmt.Fprintf(os.Stderr, "kvserver: resilience: %d shedded ops, %d evicted conns, %d client-gone, admission cap %d/%d (low-water %d)\n",
		st.SheddedOps, st.EvictedConns, st.ClientGone, st.AdmissionCap, st.AdmissionCapFull, st.AdmissionCapLow)

	if serveErr != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", serveErr)
		os.Exit(1)
	}
	// Serve returned nil: a drain finished. Its verdict (clean vs
	// force-closed stragglers) is the exit status.
	if err := <-shutdownErr; err != nil {
		fmt.Fprintf(os.Stderr, "kvserver: %v\n", err)
		os.Exit(1)
	}
}
