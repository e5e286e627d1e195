// Command mallocbench regenerates the paper's Table 2: the mmicro
// allocator stress benchmark (64-byte malloc + initialize + free with
// ~4 µs delays) against the single-lock splay-tree allocator, for
// every lock column of the paper. Cells are malloc-free pairs per
// millisecond, Table 2's unit.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/cli"
	"repro/internal/mmicro"
	"repro/internal/numa"
	"repro/internal/registry"
	"repro/internal/stats"
)

func main() {
	var (
		threadsFlag  = flag.String("threads", "1,2,4,8,16,32,64,128,255", "comma-separated thread counts (paper's rows)")
		locksFlag    = flag.String("locks", "", "override lock list (default: the paper's Table 2 columns)")
		clustersFlag = flag.Int("clusters", 4, "NUMA clusters to simulate")
		durationFlag = flag.Duration("duration", 300*time.Millisecond, "measurement window per cell (paper: 10s)")
		delayFlag    = flag.Duration("delay", 4*time.Microsecond, "artificial delay after each malloc and free")
		csvFlag      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		reuseFlag    = flag.Bool("reuse", false, "also print the remote block-reuse table (the Table 2 mechanism)")
	)
	flag.Parse()

	const tool = "mallocbench"
	threads, err := cli.ParseIntList(*threadsFlag)
	if err != nil {
		cli.Dief(tool, "bad -threads: %v", err)
	}
	if err := cli.Positive("clusters", *clustersFlag); err != nil {
		cli.Die(tool, err)
	}
	if err := cli.Positive("duration", *durationFlag); err != nil {
		cli.Die(tool, err)
	}
	lockNames, err := cli.Locks(*locksFlag)
	if err != nil {
		cli.Die(tool, err)
	}
	for _, name := range lockNames {
		if registry.MustLookup(name).NewMutex == nil {
			cli.Dief(tool, "lock %q is not blocking; the allocator needs a Lock/Unlock lock", name)
		}
	}
	if len(lockNames) == 0 {
		lockNames = registry.TableNames()
	}
	topo := numa.New(*clustersFlag, slices.Max(threads))

	headers := append([]string{"threads"}, lockNames...)
	tb := stats.NewTable("Table 2: malloc-free pairs per millisecond (mmicro)", headers...)
	var reuse *stats.Table
	if *reuseFlag {
		reuse = stats.NewTable("Table 2 mechanism: % block reuses crossing clusters", headers...)
	}
	for _, n := range threads {
		row := []string{fmt.Sprint(n)}
		reuseRow := []string{fmt.Sprint(n)}
		for _, name := range lockNames {
			e := registry.MustLookup(name)
			cfg := mmicro.DefaultConfig(topo, n)
			cfg.Duration = *durationFlag
			cfg.DelayNs = int64(*delayFlag)
			res, err := mmicro.Run(cfg, e.NewMutex(topo))
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %s @%d: %v\n", tool, name, n, err)
				os.Exit(1)
			}
			row = append(row, stats.F(res.PairsPerMs(), 0))
			reuseRow = append(reuseRow, stats.F(100*res.RemoteReuseRate(), 1))
			fmt.Fprintf(os.Stderr, "ran %-10s threads=%-4d %.0f pairs/ms\n", name, n, res.PairsPerMs())
		}
		tb.AddRow(row...)
		if reuse != nil {
			reuse.AddRow(reuseRow...)
		}
	}
	fmt.Print(cli.Emit(tb, *csvFlag))
	if reuse != nil {
		fmt.Println()
		fmt.Print(cli.Emit(reuse, *csvFlag))
	}
}
