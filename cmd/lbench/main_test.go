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

// runTool runs the tool and returns its stdout, its stderr and
// whether it exited 0.
func runTool(args ...string) (stdout, stderr string, ok bool) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), lbenchMainEnv+"=1")
	var errb strings.Builder
	cmd.Stderr = &errb
	out, err := cmd.Output()
	return string(out), errb.String(), err == nil
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, ok := runTool(args...)
	if !ok {
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
	)
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
		records []string // nil: the exhibit has no -json form
	}{
		{
			"fig2", []string{"-fig", "2", "-locks", "cna,gcr-mcs,c-bo-mcs"},
			[]string{"# Figure 2: LBench scalability (pairs/sec)", "threads cna gcr-mcs c-bo-mcs"},
			each("cna", "gcr-mcs", "c-bo-mcs")(blocking),
		},
		{
			"fig6", []string{"-fig", "6", "-locks", "a-clh,a-c-bo-clh"},
			[]string{
				"# Figure 6: abortable locks (pairs/sec)", "threads a-clh a-c-bo-clh",
				"# Figure 6 companion: abort rates (§4.1.5 reports <1%) (abort %)", "threads a-clh a-c-bo-clh",
			},
			each("a-clh", "a-c-bo-clh")(abortable),
		},
		{
			"batch", []string{"-fig", "batch", "-locks", "mcs,c-bo-mcs"},
			[]string{"# Batching: dynamic cohort growth (§4.1.2) (avg same-cluster batch length)", "threads mcs c-bo-mcs"},
			each("mcs", "c-bo-mcs")(blocking),
		},
		{
			"handoff", []string{"-ablation", "handoff"},
			[]string{"# Ablation: may-pass-local hand-off bound, C-BO-MCS (§4.1.1)", handoff},
			nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append(c.args, "-threads", "1,2", "-duration", "10ms")
			if got := tableHeaders(mustRun(t, args...)); !slices.Equal(got, c.headers) {
				t.Errorf("table titles and columns:\n got  %q\n want %q", got, c.headers)
			}
			if c.records == nil {
				return
			}
			if got := recordFields(t, mustRun(t, append(args, "-json")...)); !slices.Equal(got, c.records) {
				t.Errorf("JSON records:\n got  %q\n want %q", got, c.records)
			}
		})
	}
}

// TestBadFlagsExitWithTheirMessage checks that a flag value the tool
// cannot run stops it before any measurement, with the reason and no
// panic.
func TestBadFlagsExitWithTheirMessage(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "7"}, `-fig "7": want one of 2,3,4,5,6,batch,all`},
		{[]string{"-fig", "bogus"}, `-fig "bogus": want one of 2,3,4,5,6,batch,all`},
		{[]string{"-clusters", "0"}, "-clusters must be positive, got 0"},
	} {
		out, stderr, ok := runTool(append(c.args, "-threads", "1", "-duration", "10ms")...)
		if ok {
			t.Errorf("lbench %s succeeded:\n%s", strings.Join(c.args, " "), out)
		}
		if !strings.Contains(stderr, c.want) || strings.Contains(stderr, "panic:") || strings.Contains(stderr, "ran ") {
			t.Errorf("lbench %s: stderr %q, want %q before any run and no panic", strings.Join(c.args, " "), stderr, c.want)
		}
	}
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
