package main

import (
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the tests below run the tool itself: re-executed with
// mallocbenchMainEnv set, the test binary is mallocbench.
const mallocbenchMainEnv = "MALLOCBENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mallocbenchMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// mallocbench runs the tool and returns its stdout, its stderr and
// whether it exited 0.
func mallocbench(args ...string) (stdout, stderr string, ok bool) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mallocbenchMainEnv+"=1")
	var errb strings.Builder
	cmd.Stderr = &errb
	out, err := cmd.Output()
	return string(out), errb.String(), err == nil
}

// TestExhibitShapes pins the table titles and column headers of the CI
// smoke invocation, the remote-reuse table included.
func TestExhibitShapes(t *testing.T) {
	out, stderr, ok := mallocbench("-threads", "1,2", "-locks", "mcs,c-bo-mcs", "-duration", "10ms", "-reuse")
	if !ok {
		t.Fatalf("mallocbench failed:\n%s", stderr)
	}
	want := []string{
		"# Table 2: malloc-free pairs per millisecond (mmicro)", "threads mcs c-bo-mcs",
		"# Table 2 mechanism: % block reuses crossing clusters", "threads mcs c-bo-mcs",
	}
	var got []string
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "# ") && i+1 < len(lines) {
			got = append(got, l, strings.Join(strings.Fields(lines[i+1]), " "))
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("table titles and columns:\n got  %q\n want %q", got, want)
	}
}

// TestBadClustersExitsWithItsMessage checks that -clusters 0 stops the
// tool before any measurement, with the flag's message and no panic.
func TestBadClustersExitsWithItsMessage(t *testing.T) {
	out, stderr, ok := mallocbench("-clusters", "0", "-threads", "1", "-duration", "10ms")
	if ok {
		t.Fatalf("mallocbench -clusters 0 succeeded:\n%s", out)
	}
	if want := "-clusters must be positive, got 0"; !strings.Contains(stderr, want) || strings.Contains(stderr, "panic:") || strings.Contains(stderr, "ran ") {
		t.Errorf("stderr %q, want %q before any run and no panic", stderr, want)
	}
}
