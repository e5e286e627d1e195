// Command kvbench regenerates the paper's Table 1: memcached-style
// key-value store scalability under every lock, for read-heavy
// (90% get), mixed (50%) and write-heavy (10% get) workloads; -mix
// names other get percentages, read-mostly ones such as 99.9 included.
// Each cell is the speedup over the single-threaded pthread-lock run
// of the same mix, exactly as the paper normalizes.
//
// The default lock columns are the paper's Table 1 set plus the
// extension locks (CNA and GCR-restricted variants), so the standard
// tables track the growing lock family; -locks overrides the list.
//
// Beyond the paper, -shards sweeps the sharded store: one lock
// instance per shard (built from the registry's factories), every key
// routed by its hash alone, so every worker sees one keyspace. Multiple
// shard counts additionally emit a shard-scaling table, and -json
// emits every measured cell as a JSON record for trajectory tooling.
//
// A lock's name decides its read path in every table: rw-* columns
// read in shared mode, comb-a-* columns through the combiner (in the
// operand's shared mode for comb-a-rw-*), the rest exclusively. So
// -mix 99 -locks rw-c-bo-mcs,c-bo-mcs races a reader-writer lock's
// shared Gets against its operand's exclusive ones.
//
// -batch switches to the batched-pipeline table: workers issue
// MGet/MSet batches of the given size, and every lock column is
// instrumented with an acquisition counter, so alongside the usual
// speedup table an ops-per-acquisition table shows how much work each
// lock amortizes per critical section. comb-a-* columns (the combining
// executor over the base lock) batch across procs on top of the batch
// APIs' per-call grouping; rw-* columns run MGet chunks in shared mode;
// plain columns amortize only within each call.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
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
	mixes    []float64
	threads  []int
	locks    []string
	shards   []int
	clusters int
	duration time.Duration
	keyspace uint64
	batch    int
	capacity int
	csv      bool
	jsonOut  bool
}

// record is one measured cell, emitted under -json.
type record struct {
	Mix       float64 `json:"mix_get_pct"`
	Lock      string  `json:"lock"`
	Threads   int     `json:"threads"`
	Shards    int     `json:"shards"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Speedup   float64 `json:"speedup_vs_pthread1"`
	// Batch and OpsPerAcq are populated by -batch runs: the pipeline's
	// batch size and how many operations each acquisition of the
	// underlying lock amortized.
	Batch     int     `json:"batch,omitempty"`
	OpsPerAcq float64 `json:"ops_per_acq,omitempty"`
}

func main() {
	var opt options
	var (
		mixFlag     = flag.String("mix", "all", "comma-separated get percentages in [0,100], in steps of 0.1 (e.g. 50 or 99.9), or all (90,50,10)")
		threadsFlag = flag.String("threads", "1,4,8,16,32,64,96,128", "comma-separated thread counts (paper's rows)")
		locksFlag   = flag.String("locks", "", "override lock list (default: the paper's Table 1 columns)")
		shardsFlag  = flag.String("shards", "1", "comma-separated shard counts; 1 reproduces the paper's single cache lock")
	)
	flag.IntVar(&opt.batch, "batch", 0, "batch size for the batched-pipeline table (e.g. 16); >0 drives MGet/MSet batches and adds an ops-per-acquisition table")
	flag.IntVar(&opt.clusters, "clusters", 4, "NUMA clusters to simulate")
	flag.DurationVar(&opt.duration, "duration", 300*time.Millisecond, "measurement window per cell")
	flag.Uint64Var(&opt.keyspace, "keys", 50_000, "distinct keys (pre-populated)")
	flag.IntVar(&opt.capacity, "capacity", 0, "store item capacity override (0 = the tables' defaults; size above -keys to keep the whole keyspace resident)")
	flag.BoolVar(&opt.csv, "csv", false, "emit CSV instead of aligned text")
	flag.BoolVar(&opt.jsonOut, "json", false, "emit every measured cell as JSON records instead of tables")
	flag.Parse()

	const tool = "kvbench"
	var err error
	if opt.locks, err = cli.Locks(*locksFlag); err != nil {
		cli.Die(tool, err)
	}
	for _, e := range resolve(opt.locks) {
		if e.NewMutex == nil && e.NewExec == nil {
			cli.Dief(tool, "lock %q is abortable-only and cannot guard the store", e.Name)
		}
	}
	if opt.mixes, err = parseMix(*mixFlag); err != nil {
		cli.Die(tool, err)
	}
	if opt.threads, err = cli.ParseIntList(*threadsFlag); err != nil {
		cli.Dief(tool, "bad -threads: %v", err)
	}
	if opt.shards, err = cli.ParseIntList(*shardsFlag); err != nil {
		cli.Dief(tool, "bad -shards: %v", err)
	}
	if opt.batch < 0 {
		cli.Dief(tool, "negative -batch %d", opt.batch)
	}
	for _, err := range []error{
		cli.Positive("clusters", opt.clusters),
		cli.Positive("duration", opt.duration),
		cli.Positive("keys", opt.keyspace),
	} {
		if err != nil {
			cli.Die(tool, err)
		}
	}
	if len(opt.locks) == 0 {
		if opt.batch > 0 {
			// The batched table races each headline lock against its
			// combining twin, so amortization-from-batching and
			// amortization-from-combining land side by side.
			opt.locks = []string{"mcs", "comb-a-mcs", "c-bo-mcs", "comb-a-c-bo-mcs", "cna", "comb-a-cna"}
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

// parseMix reads -mix: all, or a comma list of get percentages in
// [0,100]. kvload draws gets per mille, so a mix may have one decimal
// and no more: 99.95 would run as 100 under a title saying 99.95.
func parseMix(spec string) ([]float64, error) {
	if spec == "all" {
		return []float64{90, 50, 10}, nil
	}
	var mixes []float64
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !(v >= 0 && v <= 100) || math.Abs(v*10-math.Round(v*10)) > 1e-9 { // inverted to reject NaN
			return nil, fmt.Errorf("-mix %q: want all or get percentages in [0,100], in steps of 0.1", spec)
		}
		mixes = append(mixes, v)
	}
	return mixes, nil
}

func run(opt options) error {
	topo := numa.New(opt.clusters, slices.Max(opt.threads))

	measure := runMix
	if opt.batch > 0 {
		measure = runBatchMix
	}
	var records []record
	for _, mix := range opt.mixes {
		recs, err := measure(opt, topo, mix)
		if err != nil {
			return err
		}
		records = append(records, recs...)
	}
	if !opt.jsonOut {
		return nil
	}
	return benchfmt.Write(os.Stdout, records)
}

// cell describes one measurement: a lock guarding a store of some
// shape under some load.
type cell struct {
	entry   registry.Entry
	threads int
	shards  int
	// reads is the share of gets (-mix 50 is 0.5).
	reads float64
	// batch, when positive, drives MGet/MSet pipelines of that size and
	// is the store's MaxBatch, so a shard group of a client batch is one
	// critical section.
	batch int
	// count puts counters on the lock itself or, for a comb-a-* entry,
	// between the combiner and its operand (registry.Unwrap and Wrap),
	// where a combined batch counts as the single acquisition it is, and
	// reports operations per acquisition, exclusive and shared alike.
	count bool
}

// outcome is what one cell measured.
type outcome struct {
	opsPerSec float64
	opsPerAcq float64 // 0 when nothing was counted
}

// runCell builds the cell's store, populates it, runs the load and
// reports throughput plus the counts the cell asked for. Population is
// excluded: the counts cover only the measured window.
func runCell(opt options, topo *numa.Topology, c cell) (outcome, error) {
	e := c.entry
	var excl, shared atomic.Uint64
	if c.count {
		counted := func(x registry.Entry) registry.Entry {
			if newMutex := x.NewMutex; newMutex != nil {
				x.NewMutex = func(t *numa.Topology) locks.Mutex { return locks.CountAcquisitions(newMutex(t), &excl) }
			}
			if newRW := x.NewRW; newRW != nil {
				x.NewRW = func(t *numa.Topology) locks.RWMutex { return locks.CountRWAcquisitions(newRW(t), &excl, &shared) }
			}
			return x
		}
		if wrapper, operand, ok := e.Unwrap(); ok && e.NewExec != nil {
			var err error
			if e, err = registry.Wrap(wrapper, counted(operand)); err != nil {
				return outcome{}, err
			}
		} else {
			e = counted(e)
		}
	}

	// The name decides the read path: ExecFactory reads rw-* entries in
	// shared mode, comb-a-* ones through the combiner, the rest
	// exclusively.
	cfg := kvstore.Config{Topo: topo, Shards: c.shards, MaxBatch: c.batch, Locking: kvstore.FromExec(e.ExecFactory(topo))}
	if opt.capacity > 0 {
		// An explicit capacity also resizes the bucket arrays (half the
		// item count — ~2-deep chains at full residency), since the
		// tables' default 2^15 buckets would hash a million-key store
		// into 30-long chains and measure chain walks, not locks.
		cfg.Capacity = opt.capacity
		cfg.Buckets = opt.capacity / 2
	}
	store := kvstore.New(cfg)
	kvload.Populate(store, topo.Proc(0), opt.keyspace, 128)

	lcfg := kvload.DefaultConfig(topo, c.threads, c.reads)
	lcfg.Duration = opt.duration
	lcfg.Keyspace = opt.keyspace
	lcfg.BatchSize = c.batch

	exclBefore, sharedBefore := excl.Load(), shared.Load()
	res, err := kvload.Run(lcfg, store)
	if err != nil {
		return outcome{}, fmt.Errorf("%s @%d x%d shards (reads=%g batch=%d): %w",
			e.Name, c.threads, c.shards, c.reads, c.batch, err)
	}
	out := outcome{opsPerSec: res.Throughput()}
	if acq := excl.Load() - exclBefore + shared.Load() - sharedBefore; acq > 0 {
		out.opsPerAcq = float64(res.Ops) / float64(acq)
	}
	return out, nil
}

// column is one lock column of an exhibit: the cell to run on every
// row (threads and shards are the row's) and the record fields that
// describe it, its lock heading the column.
type column struct {
	cell cell
	rec  record
}

// table is one rendering of an exhibit's cells, each from its record.
type table struct {
	title string
	value func(record) string
}

func speedup(r record) string { return stats.F(r.Speedup, 2) }

// opsPerAcq renders a counted column's amortization, "-" for the rest.
func opsPerAcq(r record) string {
	if r.OpsPerAcq == 0 {
		return "-"
	}
	return stats.F(r.OpsPerAcq, 1)
}

// baseline measures like at one thread on one shard under pthread: the
// paper's normalization unit.
func baseline(opt options, topo *numa.Topology, like cell, label string) (float64, error) {
	like.entry, like.threads, like.shards = registry.MustLookup("pthread"), 1, 1
	out, err := runCell(opt, topo, like)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "%s: pthread@1 baseline %.0f ops/s\n", label, out.opsPerSec)
	return out.opsPerSec, nil
}

// runExhibit measures cols over opt.threads at one shard count and
// prints the tables over their cells, one row per thread count. Titles
// gain the shard suffix; records gain what was measured and where.
func runExhibit(opt options, topo *numa.Topology, shards int, base float64, cols []column, tables []table) ([]record, error) {
	suffix := ""
	if shards > 1 {
		suffix = fmt.Sprintf(" [%d shards]", shards)
	}
	rendered := make([]*stats.Table, len(tables))
	for i, t := range tables {
		headers := []string{"threads"}
		for _, c := range cols {
			headers = append(headers, c.rec.Lock)
		}
		rendered[i] = stats.NewTable(t.title+suffix, headers...)
	}
	var records []record
	for _, n := range opt.threads {
		rows := make([][]string, len(tables))
		for _, c := range cols {
			c.cell.threads, c.cell.shards = n, shards
			out, err := runCell(opt, topo, c.cell)
			if err != nil {
				return nil, err
			}
			r := c.rec
			r.Threads, r.Shards = n, shards
			r.OpsPerSec, r.Speedup, r.OpsPerAcq = out.opsPerSec, stats.Speedup(base, out.opsPerSec), out.opsPerAcq
			records = append(records, r)
			for i, t := range tables {
				rows[i] = append(rows[i], t.value(r))
			}
			trace := fmt.Sprintf("ran %-22s threads=%-4d shards=%-3d %.0f ops/s", r.Lock, n, shards, out.opsPerSec)
			if out.opsPerAcq > 0 {
				trace += fmt.Sprintf(" %.2f ops/acq", out.opsPerAcq)
			}
			fmt.Fprintln(os.Stderr, trace)
		}
		for i := range tables {
			rendered[i].AddRow(append([]string{fmt.Sprint(n)}, rows[i]...)...)
		}
	}
	if !opt.jsonOut {
		for _, tb := range rendered {
			fmt.Print(cli.Emit(tb, opt.csv))
			fmt.Println()
		}
	}
	return records, nil
}

// sweep runs the exhibit once per -shards count.
func sweep(opt options, topo *numa.Topology, base float64, cols []column, tables []table) ([]record, error) {
	var records []record
	for _, shards := range opt.shards {
		recs, err := runExhibit(opt, topo, shards, base, cols, tables)
		if err != nil {
			return nil, err
		}
		records = append(records, recs...)
	}
	return records, nil
}

// resolve looks the -locks names up; cli.Locks validated and spelled
// them at flag parsing.
func resolve(names []string) []registry.Entry {
	entries := make([]registry.Entry, len(names))
	for i, name := range names {
		entries[i] = registry.MustLookup(name)
	}
	return entries
}

// runMix emits Table 1 for one mix, each Get on its lock's read path:
// exclusive for the paper's locks, as the paper ran them, shared for
// rw-* names; comb-a-* names run the single-op path through delegated
// execution.
func runMix(opt options, topo *numa.Topology, getPct float64) ([]record, error) {
	var cols []column
	for _, e := range resolve(opt.locks) {
		cols = append(cols, column{
			cell: cell{entry: e, reads: getPct / 100},
			rec:  record{Mix: getPct, Lock: e.Name},
		})
	}
	base, err := baseline(opt, topo, cols[0].cell, fmt.Sprintf("mix %.4g%% gets", getPct))
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Table 1 (%.4g%% gets / %.4g%% sets): speedup over pthread@1", getPct, 100-getPct)
	records, err := sweep(opt, topo, base, cols, []table{{title: title, value: speedup}})
	if err == nil && len(opt.shards) > 1 && !opt.jsonOut {
		fmt.Print(cli.Emit(scalingTable(opt, records, getPct), opt.csv))
		fmt.Println()
	}
	return records, err
}

// runBatchMix emits the batched-pipeline tables for one mix: workers
// issue MGet/MSet batches of opt.batch and every lock column carries
// an acquisition counter, so beside the speedup table (normalized to
// batched pthread@1 on one shard) an ops-per-acquisition table shows
// how much work each lock amortizes per critical section. rw-* columns
// run MGet chunks in shared mode.
func runBatchMix(opt options, topo *numa.Topology, getPct float64) ([]record, error) {
	var cols []column
	for _, e := range resolve(opt.locks) {
		cols = append(cols, column{
			cell: cell{entry: e, reads: getPct / 100, batch: opt.batch, count: true},
			rec:  record{Mix: getPct, Lock: e.Name, Batch: opt.batch},
		})
	}
	base, err := baseline(opt, topo, cols[0].cell, fmt.Sprintf("batch=%d mix %.4g%% gets", opt.batch, getPct))
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Batched pipeline (batch=%d, %.4g%% gets): ", opt.batch, getPct)
	return sweep(opt, topo, base, cols, []table{
		{title: title + "speedup over pthread@1", value: speedup},
		{title: title + "ops per lock acquisition", value: opsPerAcq},
	})
}

// scalingTable condenses the sweep into shard scaling at the highest
// thread count: each cell is that lock's aggregate throughput relative
// to its own run at the first listed shard count.
func scalingTable(opt options, records []record, getPct float64) *stats.Table {
	maxThreads := slices.Max(opt.threads)
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
	title := fmt.Sprintf("Shard scaling (%.4g%% gets, %d threads): throughput vs %d shard(s)",
		getPct, maxThreads, baseShards)
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
