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

// TestExhibitShapes pins what the four exhibits print — table titles,
// column headers, and the JSON fields of every record, in order — for
// the CI smoke invocations. The standard, batch and reads expectations
// were captured from the tool as it stood before its six store builders
// and measure functions became one cell runner; its fixed-policy comb-
// columns and their policy field have since been retired.
func TestExhibitShapes(t *testing.T) {
	const (
		common = "mix_get_pct,lock,threads,shards,ops_per_sec,speedup_vs_pthread1"
		rwCols = "threads rw-mcs rw-mcs/x"
	)
	var batchedHeaders, batchedRecords []string
	for _, suffix := range []string{"", " [2 shards]"} {
		batchedHeaders = append(batchedHeaders,
			"# RW read path (batch=16, 90% gets): speedup over pthread@1"+suffix, rwCols)
		batchedRecords = append(batchedRecords,
			"rw-mcs: "+common+",read_fraction,read_path,batch",
			"rw-mcs: "+common+",read_fraction,read_path,batch")
	}
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
			"reads", []string{"-reads=0.99", "-threads", "2", "-locks", "rw-mcs"},
			[]string{"# RW read path (99% gets): speedup over pthread@1", rwCols},
			[]string{
				"rw-mcs: " + common + ",read_fraction,read_path",
				"rw-mcs: " + common + ",read_fraction,read_path",
			},
		},
		{
			"reads-batch", []string{"-reads", "0.9", "-batch", "16", "-threads", "2", "-shards", "1,2", "-locks", "rw-mcs"},
			batchedHeaders, batchedRecords,
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
// registry refuses stops the tool before any measurement, with the
// registry's own message.
func TestLockNameErrorsSurfaceAtFlagParsing(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-locks", "comb-a-a-clh")
	cmd.Env = append(os.Environ(), kvbenchMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("kvbench -locks comb-a-a-clh succeeded:\n%s", out)
	}
	if want := "a-clh is abortable-only, comb-a- needs a blocking lock"; !strings.Contains(string(out), want) {
		t.Errorf("output %q does not carry %q", out, want)
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
