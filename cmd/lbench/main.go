// Command lbench regenerates the paper's microbenchmark figures:
//
//	Figure 2 — throughput vs thread count (-fig 2)
//	Figure 3 — L2 coherence misses per critical section (-fig 3)
//	Figure 4 — low-contention zoom of Figure 2 (-fig 4)
//	Figure 5 — fairness: stddev %% of per-thread throughput (-fig 5)
//	Figure 6 — abortable lock throughput and abort rates (-fig 6)
//	batching — avg same-cluster batch length and migrations (-fig batch)
//
// plus the hand-off bound ablation discussed in §4.1.1
// (-ablation handoff). "-fig all" runs everything. Figures 2/3/4/5 and
// the batching table come from one shared sweep per invocation.
//
// -json replaces the tables with one JSON record per measured
// (lock, threads) point — the same record-array shape kvbench emits,
// so both CLIs feed the same trajectory tooling (CI uploads kvbench's
// as a build artifact; lbench's slots into the same pipeline).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
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

// record is one measured (lock, threads) point, emitted under -json.
// Every figure's metric is a projection of the same sweep, so one
// record carries them all.
type record struct {
	Kind              string   `json:"kind"` // "blocking" or "abortable"
	Lock              string   `json:"lock"`
	Threads           int      `json:"threads"`
	PairsPerSec       float64  `json:"pairs_per_sec"`
	MissesPerCS       float64  `json:"misses_per_cs"`
	FairnessStdDevPct float64  `json:"fairness_stddev_pct"`
	AvgBatch          float64  `json:"avg_batch"`
	AbortPct          *float64 `json:"abort_pct,omitempty"` // abortable records only, zero included
}

// figures are the -fig values; all but 6 read the blocking sweep.
const figures = "2,3,4,5,6,batch,all"

func main() {
	var (
		figFlag      = flag.String("fig", "all", "figure to regenerate: "+figures)
		ablationFlag = flag.String("ablation", "", "ablation to run: handoff")
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

func run(opt options) error {
	topo := numa.New(opt.clusters, slices.Max(opt.threads))

	if opt.ablation == "handoff" {
		return runHandoffAblation(opt, topo)
	}
	if opt.ablation != "" {
		return fmt.Errorf("unknown ablation %q", opt.ablation)
	}

	wantBlocking := opt.fig != "6"
	wantAbortable := opt.fig == "6" || opt.fig == "all"

	var records []record
	if wantBlocking {
		names := opt.locks
		if len(names) == 0 {
			names = registry.Figure2Names()
		}
		results, err := sweepBlocking(opt, topo, names)
		if err != nil {
			return err
		}
		if opt.jsonOut {
			records = append(records, collectRecords("blocking", opt, names, results)...)
		} else {
			emitBlocking(opt, names, results)
		}
	}
	if wantAbortable {
		names := opt.locks
		if len(names) == 0 {
			names = registry.Figure6Names()
		}
		results, err := sweepAbortable(opt, topo, names)
		if err != nil {
			return err
		}
		if opt.jsonOut {
			records = append(records, collectRecords("abortable", opt, names, results)...)
		} else {
			emitFigure6(opt, names, results)
		}
	}
	if opt.jsonOut {
		return benchfmt.Write(os.Stdout, records)
	}
	return nil
}

// collectRecords flattens a sweep into JSON records, one per measured
// point, in lock-then-threads order.
func collectRecords(kind string, opt options, names []string, results map[string][]lbench.Result) []record {
	var out []record
	for _, name := range names {
		for i, n := range opt.threads {
			res := results[name][i]
			rec := record{
				Kind:              kind,
				Lock:              name,
				Threads:           n,
				PairsPerSec:       res.Throughput(),
				MissesPerCS:       res.MissesPerCS(),
				FairnessStdDevPct: res.FairnessStdDevPct(),
				AvgBatch:          res.AvgBatch(),
			}
			if kind == "abortable" {
				pct := 100 * res.AbortRate()
				rec.AbortPct = &pct
			}
			out = append(out, rec)
		}
	}
	return out
}

// sweepBlocking runs every (lock, threads) point once; Figures 2-5 and
// the batching table are different projections of the same data.
func sweepBlocking(opt options, topo *numa.Topology, names []string) (map[string][]lbench.Result, error) {
	results := make(map[string][]lbench.Result, len(names))
	for _, name := range names {
		e, err := registry.Find(name)
		if err != nil {
			return nil, err
		}
		if e.NewMutex == nil {
			return nil, fmt.Errorf("lock %q is abortable-only; use it with -fig 6", name)
		}
		for _, n := range opt.threads {
			runtime.GC() // keep collector work out of the window
			cfg := lbench.DefaultConfig(topo, n)
			cfg.Duration = opt.duration
			lock := e.NewMutex(topo) // fresh instance per point
			res, err := lbench.Run(cfg, lock)
			if err != nil {
				return nil, fmt.Errorf("%s @%d: %w", name, n, err)
			}
			results[name] = append(results[name], res)
			fmt.Fprintf(os.Stderr, "ran %-10s threads=%-4d ops=%d\n", name, n, res.Ops)
		}
	}
	return results, nil
}

func sweepAbortable(opt options, topo *numa.Topology, names []string) (map[string][]lbench.Result, error) {
	results := make(map[string][]lbench.Result, len(names))
	for _, name := range names {
		e, err := registry.Find(name)
		if err != nil {
			return nil, err
		}
		if e.NewTry == nil {
			return nil, fmt.Errorf("lock %q is not abortable; Figure 6 needs a TryMutex", name)
		}
		for _, n := range opt.threads {
			runtime.GC()
			cfg := lbench.DefaultConfig(topo, n)
			cfg.Duration = opt.duration
			cfg.Patience = opt.patience
			res, err := lbench.RunAbortable(cfg, e.NewTry(topo))
			if err != nil {
				return nil, fmt.Errorf("%s @%d: %w", name, n, err)
			}
			results[name] = append(results[name], res)
			fmt.Fprintf(os.Stderr, "ran %-10s threads=%-4d ops=%d abort%%=%.2f\n",
				name, n, res.Ops, 100*res.AbortRate())
		}
	}
	return results, nil
}

func metricTable(title, metric string, opt options, names []string,
	results map[string][]lbench.Result, get func(lbench.Result) float64, decimals int) *stats.Table {
	headers := append([]string{"threads"}, names...)
	tb := stats.NewTable(fmt.Sprintf("%s (%s)", title, metric), headers...)
	for i, n := range opt.threads {
		row := []string{fmt.Sprint(n)}
		for _, name := range names {
			row = append(row, stats.F(get(results[name][i]), decimals))
		}
		tb.AddRow(row...)
	}
	return tb
}

func emitBlocking(opt options, names []string, results map[string][]lbench.Result) {
	show := func(fig string) bool { return opt.fig == "all" || opt.fig == fig }
	if show("2") {
		fmt.Print(cli.Emit(metricTable("Figure 2: LBench scalability", "pairs/sec",
			opt, names, results, lbench.Result.Throughput, 0), opt.csv))
		fmt.Println()
	}
	if show("3") {
		fmt.Print(cli.Emit(metricTable("Figure 3: locality of reference", "simulated L2 coherence misses per CS",
			opt, names, results, lbench.Result.MissesPerCS, 3), opt.csv))
		fmt.Println()
	}
	if show("4") {
		zoom := options{fig: opt.fig, threads: nil, csv: opt.csv}
		var idx []int
		for i, n := range opt.threads {
			if n <= 16 {
				zoom.threads = append(zoom.threads, n)
				idx = append(idx, i)
			}
		}
		zoomed := make(map[string][]lbench.Result, len(names))
		for _, name := range names {
			for _, i := range idx {
				zoomed[name] = append(zoomed[name], results[name][i])
			}
		}
		if len(zoom.threads) > 0 {
			fmt.Print(cli.Emit(metricTable("Figure 4: low contention (zoom of Figure 2)", "pairs/sec",
				zoom, names, zoomed, lbench.Result.Throughput, 0), opt.csv))
			fmt.Println()
		}
	}
	if show("5") {
		fmt.Print(cli.Emit(metricTable("Figure 5: fairness", "stddev % of per-thread throughput",
			opt, names, results, lbench.Result.FairnessStdDevPct, 1), opt.csv))
		fmt.Println()
	}
	if show("batch") {
		fmt.Print(cli.Emit(metricTable("Batching: dynamic cohort growth (§4.1.2)", "avg same-cluster batch length",
			opt, names, results, lbench.Result.AvgBatch, 1), opt.csv))
		fmt.Println()
	}
}

func emitFigure6(opt options, names []string, results map[string][]lbench.Result) {
	fmt.Print(cli.Emit(metricTable("Figure 6: abortable locks", "pairs/sec",
		opt, names, results, lbench.Result.Throughput, 0), opt.csv))
	fmt.Println()
	fmt.Print(cli.Emit(metricTable("Figure 6 companion: abort rates (§4.1.5 reports <1%)", "abort %",
		opt, names, results, func(r lbench.Result) float64 { return 100 * r.AbortRate() }, 2), opt.csv))
	fmt.Println()
}

// runHandoffAblation measures the §4.1.1 claim: removing the 64
// hand-off bound buys ~10% throughput at high contention, at the price
// of unbounded unfairness.
func runHandoffAblation(opt options, topo *numa.Topology) error {
	limits := []int64{1, 16, 64, 256, -1}
	limitName := func(l int64) string {
		if l < 0 {
			return "unbounded"
		}
		return fmt.Sprint(l)
	}
	headers := []string{"threads"}
	for _, l := range limits {
		headers = append(headers, "tp@"+limitName(l), "fair%@"+limitName(l))
	}
	tb := stats.NewTable("Ablation: may-pass-local hand-off bound, C-BO-MCS (§4.1.1)", headers...)
	for _, n := range opt.threads {
		row := []string{fmt.Sprint(n)}
		for _, limit := range limits {
			e, err := registry.Find("c-bo-mcs", core.WithHandoffLimit(limit))
			if err != nil {
				return err
			}
			cfg := lbench.DefaultConfig(topo, n)
			cfg.Duration = opt.duration
			res, err := lbench.Run(cfg, e.NewMutex(topo))
			if err != nil {
				return err
			}
			row = append(row, stats.F(res.Throughput(), 0), stats.F(res.FairnessStdDevPct(), 1))
			fmt.Fprintf(os.Stderr, "ran handoff=%s threads=%d\n", limitName(limit), n)
		}
		tb.AddRow(row...)
	}
	fmt.Print(cli.Emit(tb, opt.csv))
	return nil
}
