package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A check: two sets of n runs of every workload, A and
// B alternating, every run a fresh process with its own seed, exactly
// as the driver runs the benchmark. For every workload and end-to-end
// metric it prints both medians, how much worse B's is than A's, each
// set's quartiles and spread (interquartile distance over median), and
// PASS when the difference and both spreads stay within the bound.
func runAA(workloads []*workload, n int, seed uint64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("## A/A: 2 x %d fresh-process runs per workload, %g s measured per run, seeds from %d\n\n", n, seconds, seed)
	fmt.Println("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	failed := 0
	for _, wl := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			rep, err := runFresh(self, wl.name, seed+uint64(i), seconds)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", wl.name, i, err)
			}
			for k, v := range rep.Metrics {
				sets[i%2][k] = append(sets[i%2][k], v.Value)
			}
		}
		for _, m := range endToEnd {
			q1a, ma, q3a := quartiles(sets[0][m.name])
			q1b, mb, q3b := quartiles(sets[1][m.name])
			worse := (mb - ma) / ma
			if m.better == "higher" {
				worse = -worse
			}
			sa, sb := (q3a-q1a)/ma, (q3b-q1b)/mb
			verdict := "PASS"
			if worse > m.bound || (m.name != "setup_s" && (sa > m.bound || sb > m.bound)) {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s (%s) | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.2f%% | %.2f%% | %.2f%% | %g%% | %s |\n",
				wl.name, m.name, m.unit, ma, q1a, q3a, mb, q1b, q3b, 100*worse, 100*sa, 100*sb, 100*m.bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload x metric pairs outside their bound", failed)
	}
	return nil
}

// runFresh runs one workload in a fresh process and parses the report
// on the last line of its output.
func runFresh(self, workload string, seed uint64, seconds float64) (report, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("last line is not a report: %w", err)
	}
	return rep, nil
}
