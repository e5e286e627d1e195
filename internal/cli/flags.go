package cli

import (
	"fmt"
	"os"
	"time"

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
// registry's suggestions. Each name comes back as the registry spells
// it, so -locks C-BO-MCS heads every table and record as c-bo-mcs. An
// empty spec returns nil — the tool's default set applies.
func Locks(spec string) ([]string, error) {
	names := ParseNameList(spec)
	for i, n := range names {
		e, err := registry.Find(n)
		if err != nil {
			return nil, err
		}
		names[i] = e.Name
	}
	return names, nil
}

// Positive validates a count or duration flag that must be > 0.
func Positive[T int | uint64 | time.Duration](flagName string, v T) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be positive, got %v", flagName, v)
	}
	return nil
}
