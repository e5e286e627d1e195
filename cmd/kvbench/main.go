// Command kvbench regenerates the paper's Table 1: memcached-style
// key-value store scalability under every lock, for read-heavy
// (90% get), mixed (50%) and write-heavy (10% get) workloads. Each
// cell is the speedup over the single-threaded pthread-lock run of the
// same mix, exactly as the paper normalizes.
//
// The default lock columns are the paper's Table 1 set plus the
// extension locks (CNA and GCR-restricted variants), so the standard
// tables track the growing lock family; -locks overrides the list.
//
// Beyond the paper, -shards sweeps the sharded store: one lock
// instance per shard (built from the registry's factories), with
// -placement choosing how shards are homed on clusters and -affinity
// biasing each worker's keys toward its own cluster's shards. Multiple
// shard counts additionally emit a shard-scaling table, and -json
// emits every measured cell as a JSON record for trajectory tooling.
//
// -reads switches to the reader-writer read-path table: a read-mostly
// mix at the given fraction (e.g. -reads=0.99), with two columns per
// reader-writer lock — shared-mode Gets against the same lock driven
// through its exclusive path (`<name>/x`) — across every -shards
// count. This is the Table-1-style exhibit for the cohort line's RW
// follow-up: on read-mostly traffic shared mode should pull away from
// every exclusive column. The default column set also includes the
// comb-rw-*/comb-a-rw-* read-combining twins: each runs Gets as read
// closures through the reader-combining executor over its base RW
// lock, with the underlying lock's shared acquisitions counted
// (WrapRWExec interposition), so a second table reports shared ops
// per shared acquisition — the read-side amortization the combiner
// buys on top of shared mode. Their JSON records carry read_combiner
// ("fixed" or "adaptive"); plain RW records omit the field, so older
// envelopes keep comparing.
//
// -batch switches to the batched-pipeline table: workers issue
// MGet/MSet batches of the given size, and every lock column is
// instrumented with an acquisition counter, so alongside the usual
// speedup table an ops-per-acquisition table shows how much work each
// lock amortizes per critical section. comb-* columns (the combining
// executor over the base lock) batch across procs on top of the batch
// APIs' per-call grouping; comb-a-* columns run the load-adaptive
// combiner; rw-* columns run MGet chunks in shared mode; plain columns
// amortize only within each call. comb-* and comb-a-* names are also
// valid in the standard tables, where they run the single-op path
// through delegated execution.
//
// -adaptive emits the adaptive-hot-path exhibit: per shard count,
// (1) fixed vs adaptive combining columns (comb-<l> / comb-a-<l>) with
// speedup and ops-per-acquisition tables, (2) shared vs exclusive
// batched MGet columns for the reader-writer family at a read-mostly
// mix, and (3) a fixed vs adaptive client batch pair (kvload's
// hill-climbing batch sizer against the same ceiling). The tables run
// at one get/set mix — an explicit single -mix, or 50% when -mix is
// left at "all". JSON records carry the new knobs (combiner,
// batch_mode, avg_batch).
//
// -shardstats prints a per-shard counter table after each standard
// cell: gets, sets, evictions, and the maximum combining-executor
// occupancy estimate sampled while the load ran (comb-* columns only;
// other locks have no estimator and show "-").
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/cli"
	"repro/internal/kvload"
	"repro/internal/kvstore"
	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
	"repro/internal/stats"
)

type options struct {
	mixes     []int
	threads   []int
	locks     []string
	shards    []int
	clusters  int
	duration  time.Duration
	keyspace  uint64
	affinity  float64
	reads     float64
	batch     int
	adaptive  bool
	capacity  int
	shardStat bool
	placement kvstore.Placement
	csv       bool
	jsonOut   bool
}

// record is one measured cell, emitted under -json.
type record struct {
	Mix       int     `json:"mix_get_pct"`
	Lock      string  `json:"lock"`
	Threads   int     `json:"threads"`
	Shards    int     `json:"shards"`
	Placement string  `json:"placement"`
	Affinity  float64 `json:"affinity"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Speedup   float64 `json:"speedup_vs_pthread1"`
	// Reads and ReadPath are populated by -reads (RW read-path) runs:
	// the exact read fraction and whether Gets ran in shared or
	// exclusive mode.
	Reads    float64 `json:"read_fraction,omitempty"`
	ReadPath string  `json:"read_path,omitempty"`
	// Batch and OpsPerAcq are populated by -batch runs: the pipeline's
	// batch size and how many operations each acquisition of the
	// underlying lock amortized.
	Batch     int     `json:"batch,omitempty"`
	OpsPerAcq float64 `json:"ops_per_acq,omitempty"`
	// Combiner distinguishes the combining policy of -adaptive runs'
	// executor columns: "fixed" (comb-*) or "adaptive" (comb-a-*).
	Combiner string `json:"combiner,omitempty"`
	// ReadCombiner marks -reads cells whose Gets ran as read closures
	// through a reader-combining executor (comb-rw-* / comb-a-rw-*
	// columns): "fixed" or "adaptive". Plain RW cells omit it, so
	// pre-combining envelopes keep matching. Those cells reuse
	// OpsPerAcq for shared ops per shared acquisition of the base
	// lock.
	ReadCombiner string `json:"read_combiner,omitempty"`
	// BatchMode is the client batching policy of -adaptive runs'
	// pipeline pair: "fixed" issues Batch keys every round, "adaptive"
	// hill-climbs within [1,Batch]; AvgBatch is the average batch the
	// adaptive client actually issued.
	BatchMode string  `json:"batch_mode,omitempty"`
	AvgBatch  float64 `json:"avg_batch,omitempty"`
}

func main() {
	var (
		mixFlag       = flag.String("mix", "all", "get percentage: 90, 50, 10 or all")
		threadsFlag   = flag.String("threads", "1,4,8,16,32,64,96,128", "comma-separated thread counts (paper's rows)")
		locksFlag     = flag.String("locks", "", "override lock list (default: the paper's Table 1 columns)")
		shardsFlag    = flag.String("shards", "1", "comma-separated shard counts; 1 reproduces the paper's single cache lock")
		placementFlag = flag.String("placement", "affine", "shard placement: hashmod or affine")
		affinityFlag  = flag.Float64("affinity", 0, "probability a worker's keys target its own cluster's shards [0,1]")
		readsFlag     = flag.Float64("reads", 0, "read fraction for the RW read-path table (e.g. 0.99); >0 replaces -mix and compares shared vs exclusive Gets")
		batchFlag     = flag.Int("batch", 0, "batch size for the batched-pipeline table (e.g. 16); >0 drives MGet/MSet batches and adds an ops-per-acquisition table")
		adaptiveFlag  = flag.Bool("adaptive", false, "emit the adaptive-hot-path tables: fixed vs adaptive combining, shared vs exclusive batched MGet, fixed vs adaptive client batch (one mix: -mix, defaulting to 50)")
		shardsatFlag  = flag.Bool("shardstats", false, "print per-shard counters (gets/sets/evictions and sampled max combiner occupancy) after each standard cell")
		clustersFlag  = flag.Int("clusters", 4, "NUMA clusters to simulate")
		durationFlag  = flag.Duration("duration", 300*time.Millisecond, "measurement window per cell")
		keysFlag      = flag.Uint64("keys", 50_000, "distinct keys (pre-populated)")
		capFlag       = flag.Int("capacity", 0, "store item capacity override (0 = the tables' defaults; size above -keys to keep the whole keyspace resident)")
		csvFlag       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonFlag      = flag.Bool("json", false, "emit every measured cell as JSON records instead of tables")
	)
	flag.Parse()

	const tool = "kvbench"
	opt := options{
		clusters:  *clustersFlag,
		duration:  *durationFlag,
		keyspace:  *keysFlag,
		capacity:  *capFlag,
		affinity:  *affinityFlag,
		reads:     *readsFlag,
		batch:     *batchFlag,
		adaptive:  *adaptiveFlag,
		shardStat: *shardsatFlag,
		csv:       *csvFlag,
		jsonOut:   *jsonFlag,
	}
	lockNames, err := cli.Locks(*locksFlag)
	if err != nil {
		cli.Die(tool, err)
	}
	opt.locks = lockNames
	switch *mixFlag {
	case "all":
		opt.mixes = []int{90, 50, 10}
	case "90", "50", "10":
		opt.mixes = []int{atoi(*mixFlag)}
	default:
		cli.Dief(tool, "-mix must be 90, 50, 10 or all")
	}
	threads, err := cli.ParseIntList(*threadsFlag)
	if err != nil {
		cli.Dief(tool, "bad -threads: %v", err)
	}
	opt.threads = threads
	shards, err := cli.ParseIntList(*shardsFlag)
	if err != nil {
		cli.Dief(tool, "bad -shards: %v", err)
	}
	opt.shards = shards
	opt.placement, err = cli.Placement(*placementFlag)
	if err != nil {
		cli.Die(tool, err)
	}
	if err := cli.Fraction("affinity", opt.affinity); err != nil {
		cli.Die(tool, err)
	}
	if err := cli.Fraction("reads", opt.reads); err != nil {
		cli.Die(tool, err)
	}
	if opt.batch < 0 {
		cli.Dief(tool, "negative -batch %d", opt.batch)
	}
	if opt.batch > 0 && opt.reads > 0 && !opt.adaptive {
		cli.Dief(tool, "-batch and -reads select different tables; pick one (or -adaptive, which uses both)")
	}
	if (opt.batch > 0 || opt.adaptive) && opt.affinity > 0 {
		cli.Dief(tool, "-affinity is a per-operation knob; unsupported with batched pipelines")
	}
	if opt.adaptive {
		// The adaptive tables pick their own defaults for the knobs the
		// user left unset: a 16-key pipeline and a 90% read mix. The
		// client-batch table needs a ceiling the sizer can move within,
		// so a degenerate pipeline is rejected up front rather than
		// after the first tables have already burned their windows.
		if opt.batch == 0 {
			opt.batch = 16
		}
		if opt.batch < 2 {
			cli.Dief(tool, "-adaptive needs -batch > 1 (the adaptive client sizes batches within [1,batch])")
		}
		if opt.reads == 0 {
			opt.reads = 0.9
		}
		// The adaptive tables run at a single mix; the -mix=all default
		// would silently mean "just the first", so it resolves to the
		// mixed workload instead. An explicit single -mix is honored.
		if *mixFlag == "all" {
			opt.mixes = []int{50}
		}
	}
	if len(opt.locks) == 0 {
		if opt.adaptive {
			// Base locks whose comb-/comb-a- twins the combining tables
			// race; the shared-read table uses the rw-* family.
			opt.locks = []string{"mcs", "c-bo-mcs", "cna"}
		} else if opt.batch > 0 {
			// The batched table races each headline lock against its
			// combining twin, so amortization-from-batching and
			// amortization-from-combining land side by side.
			opt.locks = []string{"mcs", "comb-mcs", "c-bo-mcs", "comb-c-bo-mcs", "cna", "comb-cna"}
		} else if opt.reads > 0 {
			// The RW table defaults to the native reader-writer family —
			// each gets a shared and an exclusive column — plus the
			// read-combining twins (shared-only columns with a shared
			// ops-per-acquisition metric).
			opt.locks = append(registry.RWNames(), registry.RWCombiningNames()...)
		} else {
			// The paper's Table 1 columns plus the headline extension locks,
			// so the standard tables track the growing family. (mallocbench
			// keeps the bare paper set for Table 2.)
			opt.locks = append(registry.TableNames(), "cna", "gcr-mcs")
		}
	}
	if err := run(opt); err != nil {
		fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
		os.Exit(1)
	}
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

func run(opt options) error {
	maxThreads := 0
	for _, t := range opt.threads {
		if t > maxThreads {
			maxThreads = t
		}
	}
	topo := numa.New(opt.clusters, maxThreads)

	var records []record
	switch {
	case opt.adaptive:
		recs, err := runAdaptive(opt, topo)
		if err != nil {
			return err
		}
		records = recs
	case opt.reads > 0:
		recs, err := runRW(opt, topo)
		if err != nil {
			return err
		}
		records = recs
	case opt.batch > 0:
		for _, mix := range opt.mixes {
			recs, err := runBatchMix(opt, topo, mix)
			if err != nil {
				return err
			}
			records = append(records, recs...)
		}
	default:
		for _, mix := range opt.mixes {
			recs, err := runMix(opt, topo, mix)
			if err != nil {
				return err
			}
			records = append(records, recs...)
		}
	}
	if opt.jsonOut {
		return benchfmt.Write(os.Stdout, records)
	}
	return nil
}

// applyCapacity applies the -capacity override after any sizing: an
// explicit capacity also resizes the bucket arrays (half the item
// count — ~2-deep chains at full residency), since the tables' default
// 2^15 buckets would hash a million-key store into 30-long chains and
// measure chain walks, not locks.
func applyCapacity(cfg *kvstore.Config, opt options) {
	if opt.capacity > 0 {
		cfg.Capacity = opt.capacity
		cfg.Buckets = opt.capacity / 2
	}
}

// sizeShards configures the multi-shard slice of cfg. It keeps the
// comparison against the single-shard cell apples-to-apples: every
// keyspace view gets at least the single-shard default capacity and
// bucket count. Under ClusterAffine each cluster's view spans only its
// home-shard group, so size per shard from the smallest group; views
// with more home shards get proportional slack. Parity is exact when
// -shards divides evenly by -clusters and is a power of two (the store
// rounds per-shard buckets up to a power of two).
func sizeShards(cfg *kvstore.Config, opt options, topo *numa.Topology, shards int) {
	cfg.Shards = shards
	cfg.Placement = opt.placement
	cfg.Capacity = 1 << 16
	cfg.Buckets = 1 << 15
	if opt.placement == kvstore.ClusterAffine {
		minGroup := shards / topo.Clusters()
		if minGroup < 1 {
			minGroup = 1
		}
		cfg.Capacity = shards * (1 << 16) / minGroup
		cfg.Buckets = shards * (1 << 15) / minGroup
	}
}

// newStore builds one cell's store: a combining executor per shard
// for comb-* entries, a single pre-built lock on the pre-sharding
// path, one lock instance per shard from the registry factory
// otherwise.
func newStore(opt options, topo *numa.Topology, e registry.Entry, shards int) *kvstore.Store {
	cfg := kvstore.Config{Topo: topo}
	if e.NewExec != nil {
		cfg.Locking = kvstore.FromExec(e.ExecFactory(topo))
		if shards > 1 {
			sizeShards(&cfg, opt, topo, shards)
		}
		applyCapacity(&cfg, opt)
		return kvstore.New(cfg)
	}
	if shards <= 1 {
		cfg.Locking = kvstore.FromLock(e.NewMutex(topo))
		applyCapacity(&cfg, opt)
		return kvstore.New(cfg)
	}
	cfg.Locking = kvstore.FromMutex(e.MutexFactory(topo))
	sizeShards(&cfg, opt, topo, shards)
	applyCapacity(&cfg, opt)
	return kvstore.New(cfg)
}

// newStoreRW builds one RW-table cell's store. shared selects the
// genuine shared read path; exclusive cells run the same lock
// construction with every Get through exclusive mode (RWFromMutex),
// so the two columns differ only in the read protocol.
func newStoreRW(opt options, topo *numa.Topology, e registry.Entry, shards int, shared bool) *kvstore.Store {
	f := e.RWFactory(topo)
	if !shared {
		inner := f
		f = func() locks.RWMutex { return locks.RWFromMutex(inner()) }
	}
	// MaxBatch tracks the pipeline's batch size when one is set (the
	// -adaptive shared-read table), so a shard group of a client batch
	// is one critical section and the "batch=N" caption describes what
	// actually ran; plain -reads runs keep the store default.
	cfg := kvstore.Config{Topo: topo, MaxBatch: opt.batch}
	if shards <= 1 {
		cfg.Locking = kvstore.FromRWLock(f())
	} else {
		cfg.Locking = kvstore.FromRW(f)
		sizeShards(&cfg, opt, topo, shards)
	}
	applyCapacity(&cfg, opt)
	return kvstore.New(cfg)
}

// measureBatch runs one batched-pipeline cell: kvload MGet/MSet
// batches of opt.batch against a fresh store whose every lock
// instance carries an acquisition counter. Population acquisitions
// are excluded; the returned amortization covers only the measured
// window. Combining entries (comb-*, comb-a-*) rebuild through
// WrapExec so the counter sits between the combiner and the base lock
// — a combined batch counts as the single acquisition it is; rw-*
// entries count exclusive and shared acquisitions into the same total
// and run MGet chunks through the shared-mode group path.
// adaptiveClient runs kvload's hill-climbing batch sizer against the
// opt.batch ceiling instead of a fixed size; avgBatch reports what it
// actually issued.
func measureBatch(opt options, topo *numa.Topology, e registry.Entry, threads, getPct, shards int, adaptiveClient bool) (tp, opsPerAcq, avgBatch float64, err error) {
	// Every shard's lock sums into one acquisition counter; under a
	// comb-* column the counter sits between the combiner and the base
	// lock, so combined batches count as the single acquisition they
	// are.
	var acquisitions atomic.Uint64
	cfg := kvstore.Config{Topo: topo, MaxBatch: opt.batch}
	switch {
	case e.NewExec != nil:
		// Derived combining entry: rebuild it through WrapExec (the
		// entry's own construction, fixed or adaptive) to interpose the
		// counter on the base lock.
		base := registry.MustLookup(e.Base)
		newMutex := base.MutexFactory(topo)
		cfg.Locking = kvstore.FromExec(func() locks.Executor {
			return e.WrapExec(topo, locks.CountAcquisitions(newMutex(), &acquisitions))
		})
	case e.NewRW != nil:
		newRW := e.NewRW
		cfg.Locking = kvstore.FromRW(func() locks.RWMutex {
			return locks.CountRWAcquisitions(newRW(topo), &acquisitions, &acquisitions)
		})
	case e.NewMutex != nil:
		newMutex := e.MutexFactory(topo)
		cfg.Locking = kvstore.FromMutex(func() locks.Mutex {
			return locks.CountAcquisitions(newMutex(), &acquisitions)
		})
	default:
		return 0, 0, 0, fmt.Errorf("lock %q cannot guard the store", e.Name)
	}
	if shards > 1 {
		sizeShards(&cfg, opt, topo, shards)
	}
	applyCapacity(&cfg, opt)
	store := kvstore.New(cfg)
	kvload.PopulateClusters(store, topo, opt.keyspace, 128)
	runtime.GC() // population litters the heap; keep GC out of the window
	before := acquisitions.Load()
	lcfg := kvload.DefaultConfig(topo, threads, getPct)
	lcfg.Duration = opt.duration
	lcfg.Keyspace = opt.keyspace
	lcfg.BatchSize = opt.batch
	lcfg.BatchAdaptive = adaptiveClient
	res, err := kvload.Run(lcfg, store)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s @%d x%d shards (batch=%d): %w", e.Name, threads, shards, opt.batch, err)
	}
	if acq := acquisitions.Load() - before; acq > 0 {
		opsPerAcq = float64(res.Ops) / float64(acq)
	}
	return res.Throughput(), opsPerAcq, res.AvgBatch(), nil
}

// runBatchMix emits the batched-pipeline tables for one mix: per
// shard count, a speedup table (normalized to batched pthread@1 on
// one shard) and an ops-per-acquisition table over the same cells.
func runBatchMix(opt options, topo *numa.Topology, getPct int) ([]record, error) {
	base, _, _, err := measureBatch(opt, topo, registry.MustLookup("pthread"), 1, getPct, 1, false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "batch=%d mix %d%% gets: pthread@1 baseline %.0f ops/s\n", opt.batch, getPct, base)

	entries := make([]registry.Entry, 0, len(opt.locks))
	for _, name := range opt.locks {
		e, err := registry.Find(name)
		if err != nil {
			return nil, err
		}
		if e.NewMutex == nil && e.NewExec == nil && e.NewRW == nil {
			return nil, fmt.Errorf("lock %q is abortable-only and cannot guard the store", name)
		}
		entries = append(entries, e)
	}

	var records []record
	for _, shards := range opt.shards {
		title := fmt.Sprintf("Batched pipeline (batch=%d, %d%% gets): speedup over pthread@1", opt.batch, getPct)
		amortTitle := fmt.Sprintf("Batched pipeline (batch=%d, %d%% gets): ops per lock acquisition", opt.batch, getPct)
		if shards > 1 {
			suffix := fmt.Sprintf(" [%d shards, %s placement]", shards, opt.placement)
			title += suffix
			amortTitle += suffix
		}
		headers := append([]string{"threads"}, opt.locks...)
		tb := stats.NewTable(title, headers...)
		ab := stats.NewTable(amortTitle, headers...)
		for _, n := range opt.threads {
			row := []string{fmt.Sprint(n)}
			amortRow := []string{fmt.Sprint(n)}
			for _, e := range entries {
				tp, opsPerAcq, _, err := measureBatch(opt, topo, e, n, getPct, shards, false)
				if err != nil {
					return nil, err
				}
				placement := opt.placement.String()
				if shards <= 1 {
					placement = "single"
				}
				records = append(records, record{
					Mix: getPct, Lock: e.Name, Threads: n, Shards: shards,
					Placement: placement,
					OpsPerSec: tp, Speedup: stats.Speedup(base, tp),
					Batch: opt.batch, OpsPerAcq: opsPerAcq,
				})
				row = append(row, stats.F(stats.Speedup(base, tp), 2))
				amortRow = append(amortRow, stats.F(opsPerAcq, 1))
				fmt.Fprintf(os.Stderr, "ran batch=%d mix=%d%% %-16s threads=%-4d shards=%-3d %.0f ops/s %.1f ops/acq\n",
					opt.batch, getPct, e.Name, n, shards, tp, opsPerAcq)
			}
			tb.AddRow(row...)
			ab.AddRow(amortRow...)
		}
		if !opt.jsonOut {
			fmt.Print(cli.Emit(tb, opt.csv))
			fmt.Println()
			fmt.Print(cli.Emit(ab, opt.csv))
			fmt.Println()
		}
	}
	return records, nil
}

// runAdaptive emits the adaptive-hot-path exhibit: per shard count,
// fixed vs adaptive combining (speedup and ops-per-acquisition, the
// comb-<l> / comb-a-<l> twins of each base lock), shared vs exclusive
// batched MGet over the reader-writer family at the -reads fraction,
// and a fixed vs adaptive client batch pair driving the first base
// lock's adaptive combiner. Everything is normalized to the batched
// pthread@1 single-shard baseline, like the -batch tables.
func runAdaptive(opt options, topo *numa.Topology) ([]record, error) {
	getPct := opt.mixes[0]
	base, _, _, err := measureBatch(opt, topo, registry.MustLookup("pthread"), 1, getPct, 1, false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "adaptive batch=%d mix %d%% gets: pthread@1 baseline %.0f ops/s\n",
		opt.batch, getPct, base)

	// Resolve each named lock to its base entry (comb-*/comb-a-* names
	// are accepted and stripped back), then to its two combining twins.
	type pair struct {
		fixed, adaptive registry.Entry
	}
	var pairs []pair
	for _, name := range opt.locks {
		e, err := registry.Find(name)
		if err != nil {
			return nil, err
		}
		if e.Base != "" {
			e = registry.MustLookup(e.Base)
		}
		if e.NewMutex == nil {
			return nil, fmt.Errorf("lock %q has no blocking face; the combining comparison needs a base lock", name)
		}
		pairs = append(pairs, pair{
			fixed:    registry.MustLookup("comb-" + e.Name),
			adaptive: registry.MustLookup("comb-a-" + e.Name),
		})
	}
	rwEntries := registry.RW()

	var records []record
	for _, shards := range opt.shards {
		placement := opt.placement.String()
		if shards <= 1 {
			placement = "single"
		}
		suffix := ""
		if shards > 1 {
			suffix = fmt.Sprintf(" [%d shards, %s placement]", shards, opt.placement)
		}

		// Table 1: fixed vs adaptive combining, speedup + ops/acq.
		headers := []string{"threads"}
		for _, pr := range pairs {
			headers = append(headers, pr.fixed.Name, pr.adaptive.Name)
		}
		tb := stats.NewTable(fmt.Sprintf("Adaptive combining (batch=%d, %d%% gets): speedup over pthread@1%s", opt.batch, getPct, suffix), headers...)
		ab := stats.NewTable(fmt.Sprintf("Adaptive combining (batch=%d, %d%% gets): ops per lock acquisition%s", opt.batch, getPct, suffix), headers...)
		for _, n := range opt.threads {
			row := []string{fmt.Sprint(n)}
			amortRow := []string{fmt.Sprint(n)}
			for _, pr := range pairs {
				for ci, e := range []registry.Entry{pr.fixed, pr.adaptive} {
					tp, opsPerAcq, _, err := measureBatch(opt, topo, e, n, getPct, shards, false)
					if err != nil {
						return nil, err
					}
					combiner := "fixed"
					if ci == 1 {
						combiner = "adaptive"
					}
					records = append(records, record{
						Mix: getPct, Lock: e.Name, Threads: n, Shards: shards,
						Placement: placement,
						OpsPerSec: tp, Speedup: stats.Speedup(base, tp),
						Batch: opt.batch, OpsPerAcq: opsPerAcq, Combiner: combiner,
					})
					row = append(row, stats.F(stats.Speedup(base, tp), 2))
					amortRow = append(amortRow, stats.F(opsPerAcq, 1))
					fmt.Fprintf(os.Stderr, "ran adaptive comb=%-8s %-20s threads=%-4d shards=%-3d %.0f ops/s %.1f ops/acq\n",
						combiner, e.Name, n, shards, tp, opsPerAcq)
				}
			}
			tb.AddRow(row...)
			ab.AddRow(amortRow...)
		}
		if !opt.jsonOut {
			fmt.Print(cli.Emit(tb, opt.csv))
			fmt.Println()
			fmt.Print(cli.Emit(ab, opt.csv))
			fmt.Println()
		}

		// Table 2: shared vs exclusive batched MGet, rw-* family.
		headers = []string{"threads"}
		for _, e := range rwEntries {
			headers = append(headers, e.Name, e.Name+"/x")
		}
		rb := stats.NewTable(fmt.Sprintf("Shared-mode batched reads (batch=%d, %.4g%% gets): speedup over pthread@1%s", opt.batch, opt.reads*100, suffix), headers...)
		for _, n := range opt.threads {
			row := []string{fmt.Sprint(n)}
			for _, e := range rwEntries {
				for _, sharedMode := range []bool{true, false} {
					tp, err := measureRW(opt, topo, e, n, shards, sharedMode)
					if err != nil {
						return nil, err
					}
					path := "exclusive"
					if sharedMode {
						path = "shared"
					}
					records = append(records, record{
						Mix: int(opt.reads*100 + 0.5), Lock: e.Name, Threads: n, Shards: shards,
						Placement: placement,
						OpsPerSec: tp, Speedup: stats.Speedup(base, tp),
						Reads: opt.reads, ReadPath: path, Batch: opt.batch,
					})
					row = append(row, stats.F(stats.Speedup(base, tp), 2))
					fmt.Fprintf(os.Stderr, "ran adaptive reads=%g %-14s %-9s threads=%-4d shards=%-3d %.0f ops/s\n",
						opt.reads, e.Name, path, n, shards, tp)
				}
			}
			rb.AddRow(row...)
		}
		if !opt.jsonOut {
			fmt.Print(cli.Emit(rb, opt.csv))
			fmt.Println()
		}

		// Table 3: fixed vs adaptive client batch, driving the first
		// base lock's adaptive combiner — the whole adaptive hot path
		// end to end.
		clientLock := pairs[0].adaptive
		cb := stats.NewTable(fmt.Sprintf("Adaptive client batch over %s (ceiling %d, %d%% gets): speedup over pthread@1%s", clientLock.Name, opt.batch, getPct, suffix),
			"threads", fmt.Sprintf("fixed/b=%d", opt.batch), fmt.Sprintf("adaptive/b<=%d", opt.batch), "avg batch")
		for _, n := range opt.threads {
			row := []string{fmt.Sprint(n)}
			var avg float64
			for _, mode := range []string{"fixed", "adaptive"} {
				tp, _, avgBatch, err := measureBatch(opt, topo, clientLock, n, getPct, shards, mode == "adaptive")
				if err != nil {
					return nil, err
				}
				records = append(records, record{
					Mix: getPct, Lock: clientLock.Name, Threads: n, Shards: shards,
					Placement: placement,
					OpsPerSec: tp, Speedup: stats.Speedup(base, tp),
					Batch: opt.batch, Combiner: "adaptive",
					BatchMode: mode, AvgBatch: avgBatch,
				})
				row = append(row, stats.F(stats.Speedup(base, tp), 2))
				if mode == "adaptive" {
					avg = avgBatch
				}
				fmt.Fprintf(os.Stderr, "ran adaptive client=%-8s %-20s threads=%-4d shards=%-3d %.0f ops/s avg batch %.1f\n",
					mode, clientLock.Name, n, shards, tp, avgBatch)
			}
			cb.AddRow(append(row, stats.F(avg, 1))...)
		}
		if !opt.jsonOut {
			fmt.Print(cli.Emit(cb, opt.csv))
			fmt.Println()
		}
	}
	return records, nil
}

// measure runs one (lock, threads, mix, shards) cell against a fresh
// store.
func measure(opt options, topo *numa.Topology, lockName string, threads, getPct, shards int) (float64, error) {
	e, err := registry.Find(lockName)
	if err != nil {
		return 0, err
	}
	if e.NewMutex == nil && e.NewExec == nil {
		return 0, fmt.Errorf("lock %q is abortable-only and cannot guard the store", lockName)
	}
	store := newStore(opt, topo, e, shards)
	kvload.PopulateClusters(store, topo, opt.keyspace, 128)
	runtime.GC() // population litters the heap; keep GC out of the window
	cfg := kvload.DefaultConfig(topo, threads, getPct)
	cfg.Duration = opt.duration
	cfg.Keyspace = opt.keyspace
	cfg.Affinity = opt.affinity
	label := fmt.Sprintf("%s mix=%d%% threads=%d shards=%d", lockName, getPct, threads, shards)
	res, err := runLoad(opt, store, cfg, label)
	if err != nil {
		return 0, fmt.Errorf("%s @%d x%d shards: %w", lockName, threads, shards, err)
	}
	return res.Throughput(), nil
}

// runLoad runs one cell's load, sampling combining-executor occupancy
// and printing the per-shard counter table when -shardstats is set.
func runLoad(opt options, store *kvstore.Store, cfg kvload.Config, label string) (kvload.Result, error) {
	var (
		stop  chan struct{}
		occCh chan []int
		pre   []kvstore.Stats
	)
	if opt.shardStat {
		// Pre-run snapshots make the table cover only the measured
		// window; population would otherwise dwarf its counters.
		pre = make([]kvstore.Stats, store.NumShards())
		for i := range pre {
			pre[i] = store.ShardSnapshot(i)
		}
		stop, occCh = make(chan struct{}), make(chan []int, 1)
		go sampleOccupancy(store, stop, occCh)
	}
	res, err := kvload.Run(cfg, store)
	if opt.shardStat {
		close(stop)
		occ := <-occCh
		if err == nil {
			printShardStats(opt, store, pre, occ, label)
		}
	}
	return res, err
}

// sampleOccupancy polls every shard's combining-executor occupancy
// estimate (locks.EstimateOccupancy behind Store.ShardOccupancy) until
// stop closes, keeping the per-shard maximum. Shards whose lock has no
// estimator — everything but the comb-* columns — stay at -1.
func sampleOccupancy(store *kvstore.Store, stop <-chan struct{}, done chan<- []int) {
	max := make([]int, store.NumShards())
	for i := range max {
		max[i] = -1
	}
	for {
		select {
		case <-stop:
			done <- max
			return
		default:
		}
		for i := range max {
			if occ, ok := store.ShardOccupancy(i); ok && occ > max[i] {
				max[i] = occ
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// printShardStats renders one cell's per-shard counters over the
// measured window (pre holds each shard's pre-run snapshot). Under
// -json the table goes to stderr so the envelope on stdout stays
// parseable.
func printShardStats(opt options, store *kvstore.Store, pre []kvstore.Stats, occ []int, label string) {
	tb := stats.NewTable("Shard stats: "+label,
		"shard", "home", "gets", "sets", "evictions", "max occ")
	for i := 0; i < store.NumShards(); i++ {
		st := store.ShardSnapshot(i)
		occStr := "-"
		if occ[i] >= 0 {
			occStr = fmt.Sprint(occ[i])
		}
		tb.AddRow(fmt.Sprint(i), fmt.Sprint(store.ShardHome(i)),
			fmt.Sprint(st.Gets-pre[i].Gets), fmt.Sprint(st.Sets-pre[i].Sets),
			fmt.Sprint(st.Evictions-pre[i].Evictions), occStr)
	}
	out := os.Stdout
	if opt.jsonOut {
		out = os.Stderr
	}
	fmt.Fprint(out, cli.Emit(tb, opt.csv))
	fmt.Fprintln(out)
}

// measureRW runs one RW-table cell: the -reads fraction against a
// fresh store whose Gets — MGet chunks included — run shared or
// exclusive. opt.batch > 0 (the -adaptive shared-read table) drives
// the batched pipeline; plain -reads runs keep the per-op loop
// (opt.batch is 0 there, and batching excludes affinity biasing).
func measureRW(opt options, topo *numa.Topology, e registry.Entry, threads, shards int, shared bool) (float64, error) {
	store := newStoreRW(opt, topo, e, shards, shared)
	kvload.PopulateClusters(store, topo, opt.keyspace, 128)
	runtime.GC() // population litters the heap; keep GC out of the window
	cfg := kvload.DefaultConfig(topo, threads, int(opt.reads*100))
	cfg.Duration = opt.duration
	cfg.Keyspace = opt.keyspace
	cfg.Affinity = opt.affinity
	cfg.ReadFraction = opt.reads
	cfg.BatchSize = opt.batch
	res, err := kvload.Run(cfg, store)
	if err != nil {
		return 0, fmt.Errorf("%s @%d x%d shards (reads=%g batch=%d): %w", e.Name, threads, shards, opt.reads, opt.batch, err)
	}
	return res.Throughput(), nil
}

// measureRWComb runs one read-combining cell of the RW table: a
// comb-rw-* / comb-a-rw-* entry rebuilt through WrapRWExec so a
// CountRWAcquisitions counter sits between the reader-combiner and
// the base RW lock — a combined read batch counts as the single
// shared acquisition it is. Alongside throughput it reports shared
// ops per shared acquisition over the measured window: how many read
// closures each RLock of the base lock amortized (1.0 means every
// read paid its own RLock, i.e. the uncontended bypass; higher means
// the combiner folded concurrent same-cluster reads together).
func measureRWComb(opt options, topo *numa.Topology, e registry.Entry, threads, shards int) (tp, sharedOpsPerAcq float64, err error) {
	var excl, shared atomic.Uint64
	base := registry.MustLookup(e.Base)
	newRW := base.NewRW
	var execs []locks.RWExecutor
	cfg := kvstore.Config{Topo: topo, MaxBatch: opt.batch}
	cfg.Locking = kvstore.FromExec(func() locks.Executor {
		x := e.WrapRWExec(topo, locks.CountRWAcquisitions(newRW(topo), &excl, &shared))
		execs = append(execs, x)
		return x
	})
	if shards > 1 {
		sizeShards(&cfg, opt, topo, shards)
	}
	applyCapacity(&cfg, opt)
	store := kvstore.New(cfg)
	kvload.PopulateClusters(store, topo, opt.keyspace, 128)
	runtime.GC() // population litters the heap; keep GC out of the window
	opsBefore, acqBefore := sharedOpsSum(execs), shared.Load()
	cfg2 := kvload.DefaultConfig(topo, threads, int(opt.reads*100))
	cfg2.Duration = opt.duration
	cfg2.Keyspace = opt.keyspace
	cfg2.Affinity = opt.affinity
	cfg2.ReadFraction = opt.reads
	cfg2.BatchSize = opt.batch
	res, err := kvload.Run(cfg2, store)
	if err != nil {
		return 0, 0, fmt.Errorf("%s @%d x%d shards (reads=%g): %w", e.Name, threads, shards, opt.reads, err)
	}
	if acq := shared.Load() - acqBefore; acq > 0 {
		sharedOpsPerAcq = float64(sharedOpsSum(execs)-opsBefore) / float64(acq)
	}
	return res.Throughput(), sharedOpsPerAcq, nil
}

// sharedOpsSum totals the read closures the given executors have run
// (every shard's executor of one read-combining cell).
func sharedOpsSum(execs []locks.RWExecutor) uint64 {
	type sharedOps interface{ SharedOps() uint64 }
	var n uint64
	for _, x := range execs {
		if s, ok := x.(sharedOps); ok {
			n += s.SharedOps()
		}
	}
	return n
}

// readCombinerLabel names a comb-rw-* entry's policy for the
// read_combiner record field and the stderr trace.
func readCombinerLabel(name string) string {
	if strings.HasPrefix(name, "comb-a-") {
		return "adaptive"
	}
	return "fixed"
}

// runRW emits the reader-writer read-path tables: per shard count, one
// column pair per lock — shared-mode Gets vs the same construction
// driven exclusively (`<name>/x`) — at the -reads fraction, normalized
// like Table 1 to pthread at one thread on one shard. Read-combining
// entries (comb-rw-*, comb-a-rw-*) contribute a single shared column
// (their writes already run combined; an exclusive-read variant would
// measure a different executor, not a different read protocol) and
// feed a second table: shared ops per shared acquisition of the base
// lock, the combiner's read-side amortization.
func runRW(opt options, topo *numa.Topology) ([]record, error) {
	base, err := measureRW(opt, topo, registry.MustLookup("pthread"), 1, 1, false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "reads=%g: pthread@1 baseline %.0f ops/s\n", opt.reads, base)

	type column struct {
		name   string
		entry  registry.Entry
		shared bool
		comb   bool
	}
	var cols []column
	haveComb := false
	for _, name := range opt.locks {
		e, err := registry.Find(name)
		if err != nil {
			return nil, err
		}
		if e.NewRWExec != nil {
			cols = append(cols, column{e.Name, e, true, true})
			haveComb = true
			continue
		}
		if e.NewMutex == nil && e.NewRW == nil {
			if e.NewExec != nil {
				return nil, fmt.Errorf("lock %q is a combining executor with no reader-writer face; use it with -batch or the standard tables", name)
			}
			return nil, fmt.Errorf("lock %q is abortable-only and cannot guard the store", name)
		}
		if e.NewRW != nil {
			cols = append(cols, column{e.Name, e, true, false})
		}
		cols = append(cols, column{e.Name + "/x", e, false, false})
	}

	var records []record
	for _, shards := range opt.shards {
		title := fmt.Sprintf("RW read path (%.4g%% gets): speedup over pthread@1", opt.reads*100)
		amortTitle := fmt.Sprintf("RW read path (%.4g%% gets): shared ops per shared acquisition", opt.reads*100)
		if shards > 1 {
			suffix := fmt.Sprintf(" [%d shards, %s placement]", shards, opt.placement)
			title += suffix
			amortTitle += suffix
		}
		headers := []string{"threads"}
		for _, c := range cols {
			headers = append(headers, c.name)
		}
		tb := stats.NewTable(title, headers...)
		ab := stats.NewTable(amortTitle, headers...)
		for _, n := range opt.threads {
			row := []string{fmt.Sprint(n)}
			amortRow := []string{fmt.Sprint(n)}
			for _, c := range cols {
				var (
					tp, opsPerAcq float64
					err           error
					combiner      string
				)
				if c.comb {
					tp, opsPerAcq, err = measureRWComb(opt, topo, c.entry, n, shards)
					combiner = readCombinerLabel(c.entry.Name)
				} else {
					tp, err = measureRW(opt, topo, c.entry, n, shards, c.shared)
				}
				if err != nil {
					return nil, err
				}
				placement, affinity := opt.placement.String(), opt.affinity
				if shards <= 1 {
					placement, affinity = "single", 0
				}
				path := "exclusive"
				if c.shared {
					path = "shared"
				}
				records = append(records, record{
					Mix: int(opt.reads*100 + 0.5), Lock: c.entry.Name, Threads: n, Shards: shards,
					Placement: placement, Affinity: affinity,
					OpsPerSec: tp, Speedup: stats.Speedup(base, tp),
					Reads: opt.reads, ReadPath: path,
					OpsPerAcq: opsPerAcq, ReadCombiner: combiner,
				})
				row = append(row, stats.F(stats.Speedup(base, tp), 2))
				if c.comb {
					amortRow = append(amortRow, stats.F(opsPerAcq, 2))
					fmt.Fprintf(os.Stderr, "ran reads=%g %-16s threads=%-4d shards=%-3d %.0f ops/s %.2f shared ops/acq\n",
						opt.reads, c.name, n, shards, tp, opsPerAcq)
				} else {
					amortRow = append(amortRow, "-")
					fmt.Fprintf(os.Stderr, "ran reads=%g %-16s threads=%-4d shards=%-3d %.0f ops/s\n",
						opt.reads, c.name, n, shards, tp)
				}
			}
			tb.AddRow(row...)
			if haveComb {
				ab.AddRow(amortRow...)
			}
		}
		if !opt.jsonOut {
			fmt.Print(cli.Emit(tb, opt.csv))
			fmt.Println()
			if haveComb {
				fmt.Print(cli.Emit(ab, opt.csv))
				fmt.Println()
			}
		}
	}
	return records, nil
}

func runMix(opt options, topo *numa.Topology, getPct int) ([]record, error) {
	// Baseline: pthread at one thread on one shard, the paper's
	// normalization unit.
	base, err := measure(opt, topo, "pthread", 1, getPct, 1)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "mix %d%% gets: pthread@1 baseline %.0f ops/s\n", getPct, base)

	var records []record
	for _, shards := range opt.shards {
		title := fmt.Sprintf("Table 1 (%d%% gets / %d%% sets): speedup over pthread@1",
			getPct, 100-getPct)
		if shards > 1 {
			title = fmt.Sprintf("%s [%d shards, %s placement]", title, shards, opt.placement)
		}
		headers := append([]string{"threads"}, opt.locks...)
		tb := stats.NewTable(title, headers...)
		for _, n := range opt.threads {
			row := []string{fmt.Sprint(n)}
			for _, name := range opt.locks {
				tp, err := measure(opt, topo, name, n, getPct, shards)
				if err != nil {
					return nil, err
				}
				// Single-shard cells ignore placement and affinity;
				// label the records with what actually ran.
				placement, affinity := opt.placement.String(), opt.affinity
				if shards <= 1 {
					placement, affinity = "single", 0
				}
				records = append(records, record{
					Mix: getPct, Lock: name, Threads: n, Shards: shards,
					Placement: placement, Affinity: affinity,
					OpsPerSec: tp, Speedup: stats.Speedup(base, tp),
				})
				row = append(row, stats.F(stats.Speedup(base, tp), 2))
				fmt.Fprintf(os.Stderr, "ran mix=%d%% %-10s threads=%-4d shards=%-3d %.0f ops/s\n",
					getPct, name, n, shards, tp)
			}
			tb.AddRow(row...)
		}
		if !opt.jsonOut {
			fmt.Print(cli.Emit(tb, opt.csv))
			fmt.Println()
		}
	}
	if len(opt.shards) > 1 && !opt.jsonOut {
		fmt.Print(cli.Emit(scalingTable(opt, records, getPct), opt.csv))
		fmt.Println()
	}
	return records, nil
}

// scalingTable condenses the sweep into shard scaling at the highest
// thread count: each cell is that lock's aggregate throughput relative
// to its own run at the first listed shard count.
func scalingTable(opt options, records []record, getPct int) *stats.Table {
	maxThreads := 0
	for _, t := range opt.threads {
		if t > maxThreads {
			maxThreads = t
		}
	}
	tp := map[string]map[int]float64{} // lock -> shards -> ops/s
	for _, r := range records {
		if r.Mix != getPct || r.Threads != maxThreads {
			continue
		}
		if tp[r.Lock] == nil {
			tp[r.Lock] = map[int]float64{}
		}
		tp[r.Lock][r.Shards] = r.OpsPerSec
	}
	baseShards := opt.shards[0]
	title := fmt.Sprintf("Shard scaling (%d%% gets, %d threads, %s placement): throughput vs %d shard(s)",
		getPct, maxThreads, opt.placement, baseShards)
	headers := append([]string{"shards"}, opt.locks...)
	tb := stats.NewTable(title, headers...)
	for _, shards := range opt.shards {
		row := []string{fmt.Sprint(shards)}
		for _, name := range opt.locks {
			row = append(row, stats.F(stats.Speedup(tp[name][baseShards], tp[name][shards]), 2))
		}
		tb.AddRow(row...)
	}
	return tb
}
