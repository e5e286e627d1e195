// Command lbench regenerates the paper's microbenchmark figures:
//
//	Figure 2 — throughput vs thread count (-fig 2)
//	Figure 3 — L2 coherence misses per critical section (-fig 3)
//	Figure 4 — low-contention zoom of Figure 2 (-fig 4)
//	Figure 5 — fairness: stddev % of per-thread throughput (-fig 5)
//	Figure 6 — abortable lock throughput and abort rates (-fig 6)
//	batching — avg same-cluster batch length and migrations (-fig batch)
//
// plus the hand-off bound ablation discussed in §4.1.1
// (-ablation handoff). "-fig all" runs everything. Figures 2/3/4/5 and
// the batching table come from one shared sweep per invocation.
//
// A -locks name runs in the figures its kind can run: a blocking lock
// in Figures 2-5 and batching, an abortable one in Figure 6, and a lock
// of both kinds (hbo) in both. A name no asked-for figure can run stops
// the tool before any measurement.
//
// -json replaces the tables with one JSON record per measured
// (lock, threads) point, or (limit, threads) point for the ablation —
// the same record-array shape kvbench emits, so both CLIs feed the
// same trajectory tooling.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/lbench"
	"repro/internal/numa"
	"repro/internal/registry"
	"repro/internal/stats"
)

type options struct {
	fig      string
	ablation string
	threads  []int
	locks    []string
	clusters int
	duration time.Duration
	patience time.Duration
	csv      bool
	jsonOut  bool
}

// record is one measured (lock, threads) point, or (limit, threads)
// point of the ablation, emitted under -json. Every figure's metric is
// a projection of the same sweep, so one record carries them all.
type record struct {
	Kind              string   `json:"kind"` // "blocking", "abortable" or "handoff"
	Lock              string   `json:"lock"`
	Threads           int      `json:"threads"`
	PairsPerSec       float64  `json:"pairs_per_sec"`
	MissesPerCS       float64  `json:"misses_per_cs"`
	FairnessStdDevPct float64  `json:"fairness_stddev_pct"`
	AvgBatch          float64  `json:"avg_batch"`
	AbortPct          *float64 `json:"abort_pct,omitempty"` // abortable records only, zero included
	// HandoffLimit is the ablation's hand-off bound, -1 for unbounded;
	// no measured limit is 0, so only handoff records carry it.
	HandoffLimit int64 `json:"handoff_limit,omitempty"`
}

// figures are the -fig values; all but 6 read the blocking sweep.
// ablations are the -ablation values.
const (
	figures   = "2,3,4,5,6,batch,all"
	ablations = "handoff"
)

func main() {
	var (
		figFlag      = flag.String("fig", "all", "figure to regenerate: "+figures)
		ablationFlag = flag.String("ablation", "", "ablation to run: "+ablations)
		threadsFlag  = flag.String("threads", "1,2,4,8,16,32,64,128", "comma-separated thread counts")
		locksFlag    = flag.String("locks", "", "override lock list (default: the figure's paper set; extension locks like cna and gcr-mcs are valid here)")
		clustersFlag = flag.Int("clusters", 4, "NUMA clusters to simulate (paper: 4 sockets)")
		durationFlag = flag.Duration("duration", 300*time.Millisecond, "measurement window per point (paper: 60s)")
		patienceFlag = flag.Duration("patience", lbench.DefaultPatience, "acquisition patience for Figure 6")
		csvFlag      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonFlag     = flag.Bool("json", false, "emit every measured point as JSON records instead of tables")
	)
	flag.Parse()

	const tool = "lbench"
	if !slices.Contains(strings.Split(figures, ","), *figFlag) {
		cli.Dief(tool, "-fig %q: want one of %s", *figFlag, figures)
	}
	if *ablationFlag != "" && !slices.Contains(strings.Split(ablations, ","), *ablationFlag) {
		cli.Dief(tool, "-ablation %q: want one of %s", *ablationFlag, ablations)
	}
	if err := cli.Positive("clusters", *clustersFlag); err != nil {
		cli.Die(tool, err)
	}
	threads, err := cli.ParseIntList(*threadsFlag)
	if err != nil {
		cli.Dief(tool, "bad -threads: %v", err)
	}
	lockNames, err := cli.Locks(*locksFlag)
	if err != nil {
		cli.Die(tool, err)
	}
	_, abortable, err := route(*figFlag, lockNames)
	if err != nil {
		cli.Die(tool, err)
	}
	if err := cli.Positive("duration", *durationFlag); err != nil {
		cli.Die(tool, err)
	}
	// Only Figure 6 waits with patience; the ablation runs no figure.
	if *ablationFlag == "" && len(abortable) > 0 {
		if err := cli.Positive("patience", *patienceFlag); err != nil {
			cli.Die(tool, err)
		}
	}
	opt := options{
		fig:      *figFlag,
		ablation: *ablationFlag,
		threads:  threads,
		locks:    lockNames,
		clusters: *clustersFlag,
		duration: *durationFlag,
		patience: *patienceFlag,
		csv:      *csvFlag,
		jsonOut:  *jsonFlag,
	}
	if err := run(opt); err != nil {
		fmt.Fprintf(os.Stderr, "lbench: %v\n", err)
		os.Exit(1)
	}
}

// route sends each -locks name to the figures -fig asks for that its
// kind can run: a blocking name to Figures 2-5 and batching, an
// abortable one to Figure 6, a name of both kinds to both. A name that
// fits none is an error, which main reports at flag parsing. No names
// means each figure's paper set; a kind with no names runs nothing.
func route(fig string, names []string) (blocking, abortable []string, err error) {
	wantBlocking, wantAbortable := fig != "6", fig == "6" || fig == "all"
	if len(names) == 0 {
		if wantBlocking {
			blocking = registry.Figure2Names()
		}
		if wantAbortable {
			abortable = registry.Figure6Names()
		}
		return blocking, abortable, nil
	}
	for _, name := range names {
		e := registry.MustLookup(name)
		fits := false
		if wantBlocking && e.NewMutex != nil {
			blocking, fits = append(blocking, name), true
		}
		if wantAbortable && e.NewTry != nil {
			abortable, fits = append(abortable, name), true
		}
		switch {
		case fits:
		case e.NewMutex == nil && e.NewTry == nil:
			return nil, nil, fmt.Errorf("lock %q is neither blocking nor abortable; no figure can run it", name)
		case wantAbortable:
			return nil, nil, fmt.Errorf("lock %q is not abortable; Figure 6 needs a TryMutex", name)
		default:
			return nil, nil, fmt.Errorf("lock %q is abortable-only; use it with -fig 6 or all", name)
		}
	}
	return blocking, abortable, nil
}

func run(opt options) error {
	topo := numa.New(opt.clusters, slices.Max(opt.threads))

	if opt.ablation == "handoff" {
		return runHandoffAblation(opt, topo)
	}

	blocking, abortable, err := route(opt.fig, opt.locks)
	if err != nil {
		return err
	}
	var records []record
	for _, k := range []struct {
		kind  string
		names []string
		figs  []figure
	}{
		{"blocking", blocking, blockingFigures},
		{"abortable", abortable, abortableFigures},
	} {
		if len(k.names) == 0 {
			continue
		}
		recs, err := sweep(opt, topo, k.kind, k.names)
		if err != nil {
			return err
		}
		records = append(records, recs...)
		if !opt.jsonOut {
			emit(opt, k.figs, k.names, recs)
		}
	}
	if opt.jsonOut {
		return benchfmt.Write(os.Stdout, records)
	}
	return nil
}

// sweep measures every (lock, threads) point once, each on a fresh
// instance, and returns their records in lock-then-threads order. An
// abortable sweep runs the Figure 6 harness with -patience; any other
// kind runs the blocking one, which Figures 2-5, the batching table
// and the ablation project. opts configure every lock.
func sweep(opt options, topo *numa.Topology, kind string, names []string, opts ...core.Option) ([]record, error) {
	var records []record
	for _, name := range names {
		e, err := registry.Find(name, opts...)
		if err != nil {
			return nil, err
		}
		for _, n := range opt.threads {
			cfg := lbench.DefaultConfig(topo, n)
			cfg.Duration = opt.duration
			var res lbench.Result
			if kind == "abortable" {
				cfg.Patience = opt.patience
				res, err = lbench.RunAbortable(cfg, e.NewTry(topo))
			} else {
				res, err = lbench.Run(cfg, e.NewMutex(topo))
			}
			if err != nil {
				return nil, fmt.Errorf("%s @%d: %w", name, n, err)
			}
			rec := record{Kind: kind, Lock: name, Threads: n, PairsPerSec: res.Throughput(), MissesPerCS: res.MissesPerCS(),
				FairnessStdDevPct: res.FairnessStdDevPct(), AvgBatch: res.AvgBatch()}
			trace := fmt.Sprintf("ran %-10s threads=%-4d ops=%d", name, n, res.Ops)
			if kind == "abortable" {
				pct := 100 * res.AbortRate()
				rec.AbortPct = &pct
				trace += fmt.Sprintf(" abort%%=%.2f", pct)
			}
			fmt.Fprintln(os.Stderr, trace)
			records = append(records, rec)
		}
	}
	return records, nil
}

// figure is one table over a sweep: the -fig value that selects it,
// its title and metric, and the field it prints of each record. A
// positive maxThreads keeps only the rows up to that thread count.
type figure struct {
	fig, title, metric string
	get                func(record) float64
	decimals           int
	maxThreads         int
}

var (
	blockingFigures = []figure{
		{"2", "Figure 2: LBench scalability", "pairs/sec", func(r record) float64 { return r.PairsPerSec }, 0, 0},
		{"3", "Figure 3: locality of reference", "simulated L2 coherence misses per CS",
			func(r record) float64 { return r.MissesPerCS }, 3, 0},
		{"4", "Figure 4: low contention (zoom of Figure 2)", "pairs/sec", func(r record) float64 { return r.PairsPerSec }, 0, 16},
		{"5", "Figure 5: fairness", "stddev % of per-thread throughput",
			func(r record) float64 { return r.FairnessStdDevPct }, 1, 0},
		{"batch", "Batching: dynamic cohort growth (§4.1.2)", "avg same-cluster batch length",
			func(r record) float64 { return r.AvgBatch }, 1, 0},
	}
	abortableFigures = []figure{
		{"6", "Figure 6: abortable locks", "pairs/sec", func(r record) float64 { return r.PairsPerSec }, 0, 0},
		{"6", "Figure 6 companion: abort rates (§4.1.5 reports <1%)", "abort %",
			func(r record) float64 { return *r.AbortPct }, 2, 0},
	}
)

// emit prints the figures -fig selects over a sweep's records, one row
// per thread count and one column per lock; a figure with no row left
// is skipped.
func emit(opt options, figs []figure, names []string, records []record) {
	for _, f := range figs {
		if opt.fig != "all" && opt.fig != f.fig {
			continue
		}
		tb := stats.NewTable(fmt.Sprintf("%s (%s)", f.title, f.metric), append([]string{"threads"}, names...)...)
		for i, n := range opt.threads {
			if f.maxThreads > 0 && n > f.maxThreads {
				continue
			}
			row := []string{fmt.Sprint(n)}
			for l := range names {
				row = append(row, stats.F(f.get(records[l*len(opt.threads)+i]), f.decimals))
			}
			tb.AddRow(row...)
		}
		if tb.Rows() > 0 {
			fmt.Print(cli.Emit(tb, opt.csv))
			fmt.Println()
		}
	}
}

// runHandoffAblation measures the §4.1.1 claim: removing the 64
// hand-off bound buys ~10% throughput at high contention, at the price
// of unbounded unfairness. Its records run limit-then-threads.
func runHandoffAblation(opt options, topo *numa.Topology) error {
	limits := []int64{1, 16, 64, 256, -1}
	headers := []string{"threads"}
	var records []record
	for _, limit := range limits {
		name := fmt.Sprint(limit)
		if limit < 0 {
			name = "unbounded"
		}
		headers = append(headers, "tp@"+name, "fair%@"+name)
		fmt.Fprintf(os.Stderr, "handoff=%s\n", name)
		recs, err := sweep(opt, topo, "handoff", []string{"c-bo-mcs"}, core.WithHandoffLimit(limit))
		if err != nil {
			return err
		}
		for i := range recs {
			recs[i].HandoffLimit = limit
		}
		records = append(records, recs...)
	}
	if opt.jsonOut {
		return benchfmt.Write(os.Stdout, records)
	}
	tb := stats.NewTable("Ablation: may-pass-local hand-off bound, C-BO-MCS (§4.1.1)", headers...)
	for i, n := range opt.threads {
		row := []string{fmt.Sprint(n)}
		for l := range limits {
			r := records[l*len(opt.threads)+i]
			row = append(row, stats.F(r.PairsPerSec, 0), stats.F(r.FairnessStdDevPct, 1))
		}
		tb.AddRow(row...)
	}
	fmt.Print(cli.Emit(tb, opt.csv))
	return nil
}
