package kvstore

import "fmt"

// This file is the seam bench/seams.go compiles against and nothing
// else in the module uses. The store has one representation, heap
// values behind a pointer index (DESIGN.md §6), and one routing, by key
// alone (DESIGN.md §4): the per-cluster placement, which gave each
// cluster its own copy of the keyspace, is gone. The types are
// one-valued and Config's Placement, ValueMemory, IndexMemory and
// ArenaBytes are ignored. The benchmark PR that drops the dead matrix
// cells and the explicit HashMod deletes this file and those fields.
type (
	Placement   int
	ValueMemory int
	IndexMemory int
)

// HashMod is the one placement: key k lives on shard hash(k) mod N.
const HashMod Placement = 0

func ParseValueMemory(s string) (ValueMemory, error) { return 0, onlyMode(s, "value", "heap") }
func ParseIndexMemory(s string) (IndexMemory, error) { return 0, onlyMode(s, "index", "pointer") }

// onlyMode rejects every mode name but the surviving one.
func onlyMode(s, what, only string) error {
	if s == only {
		return nil
	}
	return fmt.Errorf("kvstore: %s memory %q: only %q exists; arena values and the compact index were removed (DESIGN.md §6)", what, s, only)
}
