package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the tests below run the tool itself: re-executed with
// lbenchMainEnv set, the test binary is lbench.
const lbenchMainEnv = "LBENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(lbenchMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runTool runs the tool and returns its stdout, its stderr and its
// exit status.
func runTool(args ...string) (stdout, stderr string, code int) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), lbenchMainEnv+"=1")
	var errb strings.Builder
	cmd.Stderr = &errb
	out, _ := cmd.Output()
	return string(out), errb.String(), cmd.ProcessState.ExitCode()
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, code := runTool(args...)
	if code != 0 {
		t.Fatalf("lbench %s failed:\n%s", strings.Join(args, " "), stderr)
	}
	return out
}

// TestExhibitShapes pins what the CI smoke invocations print — table
// titles, column headers and, for the figures, the JSON fields of every
// record, in order.
func TestExhibitShapes(t *testing.T) {
	const (
		blocking  = "kind,lock,threads,pairs_per_sec,misses_per_cs,fairness_stddev_pct,avg_batch"
		abortable = blocking + ",abort_pct"
		handoff   = "threads tp@1 fair%@1 tp@16 fair%@16 tp@64 fair%@64 tp@256 fair%@256 tp@unbounded fair%@unbounded"
		fig6      = "# Figure 6: abortable locks (pairs/sec)"
		fig6Rates = "# Figure 6 companion: abort rates (§4.1.5 reports <1%) (abort %)"
	)
	titles := map[string]string{
		"2":     "# Figure 2: LBench scalability (pairs/sec)",
		"3":     "# Figure 3: locality of reference (simulated L2 coherence misses per CS)",
		"4":     "# Figure 4: low contention (zoom of Figure 2) (pairs/sec)",
		"5":     "# Figure 5: fairness (stddev % of per-thread throughput)",
		"batch": "# Batching: dynamic cohort growth (§4.1.2) (avg same-cluster batch length)",
	}
	// mixed is -fig all over a blocking, a two-kind and an abortable
	// name: each kind's figures get only the names of that kind.
	var mixed []string
	for _, fig := range []string{"2", "3", "4", "5", "batch"} {
		mixed = append(mixed, titles[fig], "threads mcs hbo")
	}
	mixed = append(mixed, fig6, "threads hbo a-clh", fig6Rates, "threads hbo a-clh")
	// each repeats a record shape once per thread count (1 and 2).
	each := func(locks ...string) func(fields string) []string {
		return func(fields string) []string {
			var out []string
			for _, l := range locks {
				out = append(out, l+": "+fields, l+": "+fields)
			}
			return out
		}
	}
	cases := []struct {
		name    string
		args    []string
		headers []string
		records []string
	}{
		{
			"fig2", []string{"-fig", "2", "-locks", "cna,gcr-mcs,c-bo-mcs"},
			[]string{titles["2"], "threads cna gcr-mcs c-bo-mcs"},
			each("cna", "gcr-mcs", "c-bo-mcs")(blocking),
		},
		{
			"fig3", []string{"-fig", "3", "-locks", "mcs,c-bo-mcs"},
			[]string{titles["3"], "threads mcs c-bo-mcs"},
			each("mcs", "c-bo-mcs")(blocking),
		},
		{
			"fig4", []string{"-fig", "4", "-locks", "mcs,c-bo-mcs"},
			[]string{titles["4"], "threads mcs c-bo-mcs"},
			each("mcs", "c-bo-mcs")(blocking),
		},
		{
			"fig5", []string{"-fig", "5", "-locks", "mcs,c-bo-mcs"},
			[]string{titles["5"], "threads mcs c-bo-mcs"},
			each("mcs", "c-bo-mcs")(blocking),
		},
		{
			"fig6", []string{"-fig", "6", "-locks", "a-clh,a-c-bo-clh"},
			[]string{fig6, "threads a-clh a-c-bo-clh", fig6Rates, "threads a-clh a-c-bo-clh"},
			each("a-clh", "a-c-bo-clh")(abortable),
		},
		{
			"batch", []string{"-fig", "batch", "-locks", "mcs,c-bo-mcs"},
			[]string{titles["batch"], "threads mcs c-bo-mcs"},
			each("mcs", "c-bo-mcs")(blocking),
		},
		{
			"all-mixed-kinds", []string{"-fig", "all", "-locks", "mcs,hbo,a-clh"},
			mixed,
			append(each("mcs", "hbo")(blocking), each("hbo", "a-clh")(abortable)...),
		},
		{
			"handoff", []string{"-ablation", "handoff"},
			[]string{"# Ablation: may-pass-local hand-off bound, C-BO-MCS (§4.1.1)", handoff},
			// one record per (limit, threads) point, limits 1 … unbounded
			each("c-bo-mcs", "c-bo-mcs", "c-bo-mcs", "c-bo-mcs", "c-bo-mcs")(blocking + ",handoff_limit"),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append(c.args, "-threads", "1,2", "-duration", "10ms")
			if got := tableHeaders(mustRun(t, args...)); !slices.Equal(got, c.headers) {
				t.Errorf("table titles and columns:\n got  %q\n want %q", got, c.headers)
			}
			if got := recordFields(t, mustRun(t, append(args, "-json")...)); !slices.Equal(got, c.records) {
				t.Errorf("JSON records:\n got  %q\n want %q", got, c.records)
			}
		})
	}
}

// TestBadFlagsExitWithTheirMessage checks that a flag value the tool
// cannot run stops it at flag parsing (exit 2) before any measurement,
// with the reason and no panic. A -locks name no asked-for figure can
// run is such a value.
func TestBadFlagsExitWithTheirMessage(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "7"}, `-fig "7": want one of 2,3,4,5,6,batch,all`},
		{[]string{"-fig", "bogus"}, `-fig "bogus": want one of 2,3,4,5,6,batch,all`},
		{[]string{"-ablation", "foo"}, `-ablation "foo": want one of handoff`},
		{[]string{"-clusters", "0"}, "-clusters must be positive, got 0"},
		{[]string{"-fig", "2", "-locks", "mcs,a-clh"}, `lock "a-clh" is abortable-only; use it with -fig 6 or all`},
		{[]string{"-fig", "batch", "-locks", "a-c-bo-clh"}, `lock "a-c-bo-clh" is abortable-only`},
		{[]string{"-fig", "6", "-locks", "a-clh,mcs"}, `lock "mcs" is not abortable; Figure 6 needs a TryMutex`},
		{[]string{"-locks", "mcs,comb-a-mcs"}, `lock "comb-a-mcs" is neither blocking nor abortable`},
		{[]string{"-duration", "0"}, "-duration must be positive, got 0s"},
		{[]string{"-fig", "all", "-patience", "0"}, "-patience must be positive, got 0s"},
	} {
		out, stderr, code := runTool(append([]string{"-threads", "1", "-duration", "10ms"}, c.args...)...)
		if code != 2 {
			t.Errorf("lbench %s exited %d, want 2:\n%s", strings.Join(c.args, " "), code, out)
		}
		if !strings.Contains(stderr, c.want) || strings.Contains(stderr, "panic:") || strings.Contains(stderr, "ran ") {
			t.Errorf("lbench %s: stderr %q, want %q before any run and no panic", strings.Join(c.args, " "), stderr, c.want)
		}
	}
}

// TestPatienceCheckedOnlyForFigure6 checks that -patience, which only
// Figure 6 uses, does not stop a run that measures no abortable lock.
func TestPatienceCheckedOnlyForFigure6(t *testing.T) {
	mustRun(t, "-fig", "2", "-locks", "mcs", "-threads", "1", "-duration", "5ms", "-patience", "0")
	mustRun(t, "-ablation", "handoff", "-threads", "1", "-duration", "5ms", "-patience", "0", "-json")
}

// tableHeaders extracts each table's title line and its column header,
// the latter with its padding collapsed.
func tableHeaders(out string) []string {
	var got []string
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "# ") && i+1 < len(lines) {
			got = append(got, l, strings.Join(strings.Fields(lines[i+1]), " "))
		}
	}
	return got
}

// recordFields renders each JSON record as "lock: field,field,...",
// fields in emitted order.
func recordFields(t *testing.T, out string) []string {
	t.Helper()
	var records []json.RawMessage
	if err := json.Unmarshal([]byte(out), &records); err != nil || len(records) == 0 {
		t.Fatalf("JSON output holds no record array (%v): %q", err, out)
	}
	var got []string
	for _, raw := range records {
		var named struct{ Lock string }
		if err := json.Unmarshal(raw, &named); err != nil {
			t.Fatal(err)
		}
		// Records are flat, so every string token at an even position
		// after the opening brace is a field name.
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		var fields []string
		for i := -1; ; i++ {
			tok, err := dec.Token()
			if err != nil {
				break
			}
			if name, ok := tok.(string); ok && i%2 == 0 {
				fields = append(fields, name)
			}
		}
		got = append(got, named.Lock+": "+strings.Join(fields, ","))
	}
	return got
}
