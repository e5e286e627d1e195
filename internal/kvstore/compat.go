package kvstore

import "fmt"

// This file is the seam bench/seams.go compiles against and nothing
// else in the module uses: the store has one representation, heap
// values behind a pointer index (DESIGN.md §6). The types are
// one-valued and Config's ValueMemory, IndexMemory and ArenaBytes are
// ignored. The benchmark PR that drops the dead matrix cells deletes
// this file and those fields.
type (
	ValueMemory int
	IndexMemory int
)

func ParseValueMemory(s string) (ValueMemory, error) { return 0, onlyMode(s, "value", "heap") }
func ParseIndexMemory(s string) (IndexMemory, error) { return 0, onlyMode(s, "index", "pointer") }

// onlyMode rejects every mode name but the surviving one.
func onlyMode(s, what, only string) error {
	if s == only {
		return nil
	}
	return fmt.Errorf("kvstore: %s memory %q: only %q exists; arena values and the compact index were removed (DESIGN.md §6)", what, s, only)
}
