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
// kvbenchMainEnv set, the test binary is kvbench.
const kvbenchMainEnv = "KVBENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(kvbenchMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func kvbench(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), kvbenchMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("kvbench %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// TestExhibitShapes pins what the exhibits print — table titles,
// column headers, and the JSON fields of every record, in order — for
// the CI smoke invocations. The standard and batch expectations were
// captured from the tool as it stood before its six store builders and
// measure functions became one cell runner; its fixed-policy comb-
// columns and their policy field have since been retired.
func TestExhibitShapes(t *testing.T) {
	const common = "mix_get_pct,lock,threads,shards,ops_per_sec,speedup_vs_pthread1"
	cases := []struct {
		name    string
		args    []string
		headers []string
		records []string
	}{
		{
			"standard", []string{"-mix", "50", "-threads", "2", "-locks", "cna,gcr-mcs"},
			[]string{"# Table 1 (50% gets / 50% sets): speedup over pthread@1", "threads cna gcr-mcs"},
			[]string{"cna: " + common, "gcr-mcs: " + common},
		},
		{
			"shards", []string{"-mix", "50", "-threads", "2", "-shards", "1,2", "-locks", "mcs,c-bo-mcs"},
			[]string{
				"# Table 1 (50% gets / 50% sets): speedup over pthread@1", "threads mcs c-bo-mcs",
				"# Table 1 (50% gets / 50% sets): speedup over pthread@1 [2 shards]", "threads mcs c-bo-mcs",
				"# Shard scaling (50% gets, 2 threads): throughput vs 1 shard(s)", "shards mcs c-bo-mcs",
			},
			[]string{"mcs: " + common, "c-bo-mcs: " + common, "mcs: " + common, "c-bo-mcs: " + common},
		},
		{
			"batch", []string{"-batch=16", "-mix", "50", "-threads", "2", "-locks", "c-bo-mcs,comb-a-c-bo-mcs,comb-a-mcs"},
			[]string{
				"# Batched pipeline (batch=16, 50% gets): speedup over pthread@1", "threads c-bo-mcs comb-a-c-bo-mcs comb-a-mcs",
				"# Batched pipeline (batch=16, 50% gets): ops per lock acquisition", "threads c-bo-mcs comb-a-c-bo-mcs comb-a-mcs",
			},
			[]string{
				"c-bo-mcs: " + common + ",batch,ops_per_acq",
				"comb-a-c-bo-mcs: " + common + ",batch,ops_per_acq",
				"comb-a-mcs: " + common + ",batch,ops_per_acq",
			},
		},
		{
			// A read-mostly mix is a plain Table 1: the rw- lock reads in
			// shared mode beside its exclusive operand, each column under
			// the name as the registry spells it.
			"read-mostly", []string{"-mix", "99.9", "-threads", "2", "-locks", "RW-MCS,mcs"},
			[]string{"# Table 1 (99.9% gets / 0.1% sets): speedup over pthread@1", "threads rw-mcs mcs"},
			[]string{"rw-mcs: " + common, "mcs: " + common},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			args := append(c.args, "-duration", "20ms", "-keys", "5000")
			if got := tableHeaders(kvbench(t, args...)); !slices.Equal(got, c.headers) {
				t.Errorf("table titles and columns:\n got  %q\n want %q", got, c.headers)
			}
			if got := recordFields(t, kvbench(t, append(args, "-json")...)); !slices.Equal(got, c.records) {
				t.Errorf("JSON records:\n got  %q\n want %q", got, c.records)
			}
		})
	}
}

// TestLockNameErrorsSurfaceAtFlagParsing checks that a composition the
// registry refuses, a lock that cannot guard the store, a -mix outside
// [0,100] or a run flag that cannot run stops the tool at flag parsing
// (exit 2) before any measurement, with the reason.
func TestLockNameErrorsSurfaceAtFlagParsing(t *testing.T) {
	for _, c := range []struct {
		locks, want string
		extra       []string
	}{
		{"comb-a-a-clh", "a-clh is abortable-only, comb-a- needs a blocking lock", nil},
		{"mcs,a-clh", `lock "a-clh" is abortable-only and cannot guard the store`, nil},
		{"mcs", `-mix "101": want all or get percentages in [0,100]`, []string{"-mix", "101"}},
		{"mcs", `-mix "x": want all or get percentages in [0,100]`, []string{"-mix", "x"}},
		{"mcs", `-mix "99.95": want all or get percentages in [0,100], in steps of 0.1`, []string{"-mix", "99.95"}},
		{"mcs", "-duration must be positive, got 0s", []string{"-duration", "0"}},
		{"mcs", "-keys must be positive, got 0", []string{"-keys", "0"}},
	} {
		args := append([]string{"-locks", c.locks, "-mix", "50", "-threads", "2", "-duration", "10ms", "-keys", "2000"}, c.extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), kvbenchMainEnv+"=1")
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("kvbench %s exited %d, want 2:\n%s", strings.Join(args, " "), code, out)
		}
		if !strings.Contains(string(out), c.want) || strings.Contains(string(out), "ran ") {
			t.Errorf("kvbench %s: output %q, want %q before any run", strings.Join(args, " "), out, c.want)
		}
	}
}

// TestBadClustersExitsWithItsMessage checks that -clusters 0 stops the
// tool at flag parsing with the flag's message, not a panic.
func TestBadClustersExitsWithItsMessage(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-clusters", "0")
	cmd.Env = append(os.Environ(), kvbenchMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("kvbench -clusters 0 succeeded:\n%s", out)
	}
	if want := "-clusters must be positive, got 0"; !strings.Contains(string(out), want) || strings.Contains(string(out), "panic:") {
		t.Errorf("output %q does not carry %q, or panics", out, want)
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
