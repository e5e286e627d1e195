package cli

import (
	"fmt"
	"os"

	"repro/internal/registry"
)

// This file is the one place the cmd/ tools turn flag values into
// validated configuration. Lock names go through the registry here, so
// every tool — kvbench, lbench, kvserver, kvsoak — reports an unknown
// lock with the same "did you mean" suggestion instead of each
// open-coding its own (or worse, failing mid-sweep after minutes of
// measurement).

// Die reports a fatal flag or configuration error the way every cmd/
// tool does — "tool: error" on stderr — and exits with the
// conventional usage status 2.
func Die(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(2)
}

// Dief is Die with formatting.
func Dief(tool, format string, args ...any) {
	Die(tool, fmt.Errorf(format, args...))
}

// Locks parses a comma-separated lock list and validates every name
// against the registry, so unknown names fail at startup with the
// registry's suggestions. An empty spec returns nil — the tool's
// default set applies.
func Locks(spec string) ([]string, error) {
	names := ParseNameList(spec)
	for _, n := range names {
		if _, err := registry.Find(n); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// Fraction validates a [0,1] flag such as -reads. The
// inverted comparison rejects NaN too.
func Fraction(flagName string, v float64) error {
	if !(v >= 0 && v <= 1) {
		return fmt.Errorf("-%s %v outside [0,1]", flagName, v)
	}
	return nil
}

// Positive validates a flag that must be > 0.
func Positive(flagName string, v int) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be positive, got %d", flagName, v)
	}
	return nil
}
