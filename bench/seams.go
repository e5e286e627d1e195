package main

// Every call the benchmark makes into the repository goes through this
// file, so that a rename or a removed variant breaks one place. It
// depends on the narrowest durable surface: the facade constructors of
// package cohort, registry.Find for the one baseline the facade lacks,
// the kvstore LockSource seam and batch API, and the server's
// New/Serve/Shutdown/Snapshot and parser. It uses no derived registry
// name, none of the deprecated kvstore.Config lock fields, and none of
// the repository's own load drivers.

import (
	"bufio"
	"io"
	"net"
	"time"

	cohort "repro"
	"repro/internal/alloc"
	"repro/internal/cachesim"
	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/spin"
)

type (
	topology = cohort.Topology
	proc     = cohort.Proc
	mutex    = locks.Mutex
	rwMutex  = locks.RWMutex
	executor = locks.Executor
	store    = kvstore.Store
)

// newTopology is the machine every workload runs on: two clusters,
// procs 0,2 on cluster 0 and 1,3 on cluster 1.
func newTopology() *topology { return cohort.NewTopology(2, 4) }

// baseLocks are the bare locks lock-handoff compares, by the names
// the per-layer metrics carry.
var baseLocks = []struct {
	name string
	new  func(*topology) (mutex, error)
}{
	{"mcs", func(t *topology) (mutex, error) {
		e, err := registry.Find("mcs")
		if err != nil {
			return nil, err
		}
		return e.NewMutex(t), nil
	}},
	{"cna", func(t *topology) (mutex, error) { return cohort.NewCNA(t), nil }},
	{"c-tkt-tkt", func(t *topology) (mutex, error) { return cohort.NewCTKTTKT(t), nil }},
	{"c-bo-mcs", func(t *topology) (mutex, error) { return cohort.NewCBOMCS(t), nil }},
}

func newCBOMCS(t *topology) mutex     { return cohort.NewCBOMCS(t) }
func newRWCBOMCS(t *topology) rwMutex { return cohort.NewRWCBOMCS(t) }

// newCombA is the adaptive combining executor over m.
func newCombA(t *topology, m mutex) executor { return cohort.NewCombiningAdaptive(t, m) }

// newCombARW is the adaptive read-combining executor over l.
func newCombARW(t *topology, l rwMutex) executor { return cohort.NewRWCombiningAdaptive(t, l) }

// criticalSection is the paper's LBench critical section: two
// simulated cache lines, four writes each. The domain is built with
// the zero Config, so a line access charges no spin.WaitNs at all;
// ownership migrations are still counted.
type criticalSection struct{ dom *cachesim.Domain }

func newCriticalSection(t *topology) criticalSection {
	return criticalSection{cachesim.NewDomain(t, 2, cachesim.Config{})}
}

func (c criticalSection) run(p *proc) {
	c.dom.Access(p, 0, 4)
	c.dom.Access(p, 1, 4)
}

// storeOpts describes a store. Simulated charges are at their minimum
// unless defaultCharges asks for the repository's defaults (one
// per-layer probe does, for the record).
type storeOpts struct {
	capacity       int
	locking        kvstore.LockSource
	valueMemory    string // "" = default
	indexMemory    string // "" = default
	defaultCharges bool
}

const storeShards = 8

// newStore builds an 8-shard HashMod store. An error means a memory
// mode no longer parses; callers drop that matrix cell.
func newStore(t *topology, o storeOpts) (*store, error) {
	cfg := kvstore.Config{
		Topo:      t,
		Locking:   o.locking,
		Shards:    storeShards,
		Placement: kvstore.HashMod,
		Buckets:   o.capacity,
		Capacity:  o.capacity,
	}
	if !o.defaultCharges {
		// All-zero would be silently replaced by the 50/600 ns
		// defaults in Config.setDefaults; 0/1 is the real minimum.
		cfg.Cache = cachesim.Config{LocalNs: 0, RemoteNs: 1}
		cfg.ItemLocalNs, cfg.ItemRemoteNs = 0, 1
	}
	if o.valueMemory != "" {
		vm, err := kvstore.ParseValueMemory(o.valueMemory)
		if err != nil {
			return nil, err
		}
		cfg.ValueMemory = vm
		// 200 000 values of up to 512 B plus headers.
		cfg.ArenaBytes = 256 << 20
	}
	if o.indexMemory != "" {
		im, err := kvstore.ParseIndexMemory(o.indexMemory)
		if err != nil {
			return nil, err
		}
		cfg.IndexMemory = im
	}
	return kvstore.New(cfg), nil
}

func lockingFromMutex(f func() mutex) kvstore.LockSource   { return kvstore.FromMutex(f) }
func lockingFromRW(f func() rwMutex) kvstore.LockSource    { return kvstore.FromRW(f) }
func lockingFromExec(f func() executor) kvstore.LockSource { return kvstore.FromExec(f) }

// storeCounters are the store's own counts, read while no worker runs.
type storeCounters struct{ gets, hits, evictions uint64 }

func snapshotStore(s *store) storeCounters {
	st := s.Snapshot()
	return storeCounters{gets: st.Gets, hits: st.Hits, evictions: st.Evictions}
}

func hashKey(name string) uint64 { return server.HashKey(name) }

// wireServer is a server listening on loopback.
type wireServer struct {
	srv    *server.Server
	addr   string
	served chan error
}

// startServer serves st on a fresh loopback port. wrap, when non-nil,
// interposes on the listener (the traced run times reads and writes
// there); broken selects the server's deliberately defective mode for
// the harness self-test.
func startServer(t *topology, st *store, wrap func(net.Listener) net.Listener, broken bool) (*wireServer, error) {
	cfg := server.Config{Topo: t, Store: st}
	if broken {
		cfg.Broken = server.BrokenDropAckedWrite
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := &wireServer{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	if wrap != nil {
		ln = wrap(ln)
	}
	go func() { ws.served <- srv.Serve(ln) }()
	return ws, nil
}

// stop drains the server and waits for Serve to return.
func (ws *wireServer) stop() error {
	err := ws.srv.Shutdown(10 * time.Second)
	if serr := <-ws.served; err == nil {
		err = serr
	}
	return err
}

// wireCounters are the server's own counts.
type wireCounters struct{ ops, flushes, active uint64 }

func (ws *wireServer) counters() wireCounters {
	st := ws.srv.Snapshot()
	return wireCounters{ops: st.Gets + st.Sets + st.Deletes, flushes: st.Flushes, active: st.Active}
}

// parseStream parses every request of a canned stream with the
// server's own parser and returns how many it found.
func parseStream(r io.Reader) (int, error) {
	par := server.NewParser(bufio.NewReaderSize(r, 16<<10), server.Limits{MaxValueBytes: server.DefaultMaxValueBytes})
	var req server.Request
	n := 0
	for {
		switch err := par.ParseRequest(&req); err {
		case nil:
			n++
		case io.EOF:
			return n, nil
		default:
			return n, err
		}
	}
}

// newArena is an unguarded allocator with the charges at their minimum.
func newArena(t *topology, bytes int) (*alloc.Allocator, error) {
	return alloc.New(alloc.Config{
		Topo: t, Unguarded: true, ArenaBytes: bytes,
		LocalNs: 0, RemoteNs: 1, Cache: cachesim.Config{LocalNs: 0, RemoteNs: 1},
	})
}

// spinUnitsPerMicro is the library's one-shot calibration, on record.
func spinUnitsPerMicro() int64 { return spin.UnitsPerMicro() }

// pause is fixed work, not calibrated time: think time is pause(n)
// with n from the seeded stream, never spin.WaitNs.
func pause(n int) { spin.Pause(n) }
