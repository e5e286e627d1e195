// Command bench is the repository's benchmark: five closed-loop
// workloads that put most of the work in, respectively, the bare locks
// and executors, the store's read path, the store's write path, the
// pipelined wire path and the per-request wire path. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// defaultSeconds is how long one workload is measured: 40 windows of
// 375 ms. It equals run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// minOKShare is the share of verified operations below which a run is
// a failure rather than a measurement.
const minOKShare = 0.95

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all five)")
		seed    = flag.Uint64("seed", 1, "seed of every input: key ids, op kinds, think lengths, value lengths")
		seconds = flag.Float64("seconds", defaultSeconds, "seconds measured per workload, split into 40 windows")
		trace   = flag.Int("trace", 0, "1: the traced run; prints the per-layer metrics and writes one span file per workload")
		aa      = flag.Int("aa", 0, "run two alternating sets of N fresh-process runs of every workload and compare them")
		jsonOut = flag.String("json", "", "also write the metrics to this file")
		outDir  = flag.String("out", "bench/out", "directory for span files")
	)
	flag.CommandLine.Parse(normalizeArgs(os.Args[1:]))
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	fmt.Printf("# machine: nproc=%d gomaxprocs=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	workloads := allWorkloads
	if *name != "" {
		wl := findWorkload(*name)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		workloads = []*workload{wl}
	}
	if *aa > 0 {
		if err := runAA(workloads, *aa, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}

	rep := report{Correct: true, Metrics: make(map[string]value)}
	emit := func(prefix, key string, m metric, v float64) {
		fmt.Printf("%s/%s %.6g %s\n", prefix, m.name, v, m.unit)
		rep.Metrics[key] = value{v, m.unit}
	}
	var lowest float64 = 1
	if *trace == 1 {
		// Every per-layer metric is reported whichever workload was
		// named: the layers span all five.
		lr, err := runLayers(*seed, *outDir)
		if err != nil {
			fatal(err)
		}
		for _, m := range perLayer() {
			emit("layer", m.name, m, lr.values[m.name])
		}
		rep.Attempted, rep.Failed = lr.checked.attempted, lr.checked.failed
		lowest = 1 - ratio(float64(rep.Failed), float64(rep.Attempted))
	} else {
		for _, wl := range workloads {
			res, err := measure(wl, *seed, *seconds)
			if err != nil {
				fatal(err)
			}
			vals := []float64{res.opsPerS, res.okShare, res.setupS}
			for i, m := range endToEnd {
				key := m.name
				if len(workloads) > 1 {
					key = wl.name + "/" + m.name
				}
				emit(wl.name, key, m, vals[i])
			}
			// The time of one call is printed but not gated on: on this
			// host its percentiles do not repeat within any bound the
			// contract allows (README.md). The traced run reports them.
			fmt.Printf("# %s: p50 %.6g us, p99 %.6g us\n", wl.name, res.p50us, res.p99us)
			for _, c := range res.cells {
				fmt.Printf("# %s[%s] %.6g 1/s, p50 %.6g us, p99 %.6g us\n", wl.name, c.name, c.opsPerS, c.p50ns/1e3, c.p99ns/1e3)
			}
			rep.Attempted += res.attempted
			rep.Failed += res.failed
			lowest = min(lowest, res.okShare)
			runtime.GC()
		}
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	if *jsonOut != "" {
		if err := writeBaseline(*jsonOut, *seed, *seconds, rep); err != nil {
			fatal(err)
		}
	}
	fmt.Println(string(line))
	if lowest < minOKShare {
		os.Exit(1)
	}
}

// normalizeArgs lets -trace be given bare (go run ./bench -trace) or
// with a value in a separate argument (--trace 1, as the driver does).
func normalizeArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

// writeBaseline records a run's numbers with what produced them.
func writeBaseline(path string, seed uint64, seconds float64, rep report) error {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	type entry struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Machine string  `json:"machine"`
		Seed    uint64  `json:"seed"`
		Seconds float64 `json:"seconds"`
		Metrics []entry `json:"metrics"`
	}{fmt.Sprintf("nproc=%d gomaxprocs=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		seed, seconds, nil}
	for _, k := range names {
		out.Metrics = append(out.Metrics, entry{k, rep.Metrics[k].Value, rep.Metrics[k].Unit})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
