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

// mallocbench runs the tool and returns its stdout, its stderr and its
// exit status.
func mallocbench(args ...string) (stdout, stderr string, code int) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mallocbenchMainEnv+"=1")
	var errb strings.Builder
	cmd.Stderr = &errb
	out, _ := cmd.Output()
	return string(out), errb.String(), cmd.ProcessState.ExitCode()
}

// TestExhibitShapes pins the table titles and column headers of the CI
// smoke invocation, the remote-reuse table included.
func TestExhibitShapes(t *testing.T) {
	out, stderr, code := mallocbench("-threads", "1,2", "-locks", "mcs,c-bo-mcs", "-duration", "10ms", "-reuse")
	if code != 0 {
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

// TestBadFlagsExitWithTheirMessage checks that a flag value the tool
// cannot run stops it at flag parsing (exit 2) before any measurement,
// with the reason and no panic. A -locks name that is not a blocking
// lock (abortable-only, or a comb-a-* executor) is such a value.
func TestBadFlagsExitWithTheirMessage(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-clusters", "0"}, "-clusters must be positive, got 0"},
		{[]string{"-locks", "mcs,a-clh"}, `lock "a-clh" is not blocking`},
		{[]string{"-locks", "mcs,comb-a-mcs"}, `lock "comb-a-mcs" is not blocking`},
		{[]string{"-duration", "0"}, "-duration must be positive, got 0s"},
	} {
		out, stderr, code := mallocbench(append([]string{"-threads", "1", "-duration", "10ms"}, c.args...)...)
		if code != 2 {
			t.Errorf("mallocbench %s exited %d, want 2:\n%s", strings.Join(c.args, " "), code, out)
		}
		if !strings.Contains(stderr, c.want) || strings.Contains(stderr, "panic:") || strings.Contains(stderr, "ran ") {
			t.Errorf("mallocbench %s: stderr %q, want %q before any run and no panic", strings.Join(c.args, " "), stderr, c.want)
		}
	}
}
