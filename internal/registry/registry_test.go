package registry

import (
	"strings"
	"testing"

	"repro/internal/locks"
	"repro/internal/numa"
)

func TestAllEntriesBuildable(t *testing.T) {
	topo := numa.New(4, 8)
	for _, e := range All() {
		if e.NewMutex == nil && e.NewTry == nil && e.NewExec == nil {
			t.Errorf("%s: no factory at all", e.Name)
		}
		if e.NewMutex != nil {
			if m := e.NewMutex(topo); m == nil {
				t.Errorf("%s: NewMutex returned nil", e.Name)
			}
		}
		if e.NewTry != nil {
			if m := e.NewTry(topo); m == nil {
				t.Errorf("%s: NewTry returned nil", e.Name)
			}
		}
		if e.NewExec != nil {
			if x := e.NewExec(topo); x == nil {
				t.Errorf("%s: NewExec returned nil", e.Name)
			}
		}
		if e.Desc == "" {
			t.Errorf("%s: missing description", e.Name)
		}
	}
}

func TestCombiningEntriesDerived(t *testing.T) {
	// Every blocking lock must have a comb-a-* twin, and every comb-a-*
	// entry must point back at a blocking base.
	topo := numa.New(2, 4)
	byName := map[string]Entry{}
	for _, e := range All() {
		byName[e.Name] = e
	}
	for _, e := range All() {
		if e.NewMutex == nil {
			continue
		}
		comb, ok := byName[WrapCombA+e.Name]
		if !ok {
			t.Errorf("blocking lock %s has no %s%s entry", e.Name, WrapCombA, e.Name)
			continue
		}
		if w, operand, ok := comb.Unwrap(); comb.NewExec == nil || !ok || w != WrapCombA || operand.Name != e.Name || !comb.Extension {
			t.Errorf("%s: want NewExec set, Unwrap = (%q, %s), Extension", comb.Name, WrapCombA, e.Name)
		}
		if comb.NewMutex != nil || comb.NewTry != nil || comb.NewRW != nil {
			t.Errorf("%s: derived entries are exec-only", comb.Name)
		}
		// Native RW bases derive the reader-writer twin, whose shared
		// mode the kvstore seam detects.
		if rw := e.NewRW != nil; comb.CombinesReads() != rw || locks.SharesExecReads(comb.NewExec(topo)) != rw {
			t.Errorf("%s: read combining should match the base's NewRW (%v)", comb.Name, rw)
		}
	}
	// Every combiner maintains the occupancy estimate, so adaptive
	// admission works over it; the RW twins report it summed over both
	// modes.
	for _, name := range []string{"comb-a-mcs", "comb-a-rw-mcs"} {
		if _, ok := locks.EstimateOccupancy(byName[name].NewExec(topo)); !ok {
			t.Errorf("%s executor has no occupancy estimate", name)
		}
	}
	if names := RWCombiningNames(); len(names) != len(RW()) {
		t.Errorf("RWCombiningNames lists %d entries, want %d (one twin per native RW base)", len(names), len(RW()))
	}
	for _, e := range All() {
		if e.NewExec == nil {
			continue
		}
		_, operand, ok := e.Unwrap()
		if !ok || operand.NewMutex == nil {
			t.Errorf("%s: operand %q is not a blocking entry", e.Name, operand.Name)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("c-bo-mcs"); !ok {
		t.Error("c-bo-mcs not found")
	}
	if _, ok := Lookup("nonsense"); ok {
		t.Error("nonsense lock found")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on unknown name did not panic")
		}
	}()
	MustLookup("nonsense")
}

func TestLookupNormalizesCase(t *testing.T) {
	// CLI users type names as the paper prints them.
	for _, name := range []string{"C-BO-MCS", "c-bo-mcs", " c-bo-mcs ", "CNA", "GCR-MCS"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed; names should be case- and space-insensitive", name)
		}
	}
}

func TestFindErrors(t *testing.T) {
	if _, err := Find("c-bo-mcs"); err != nil {
		t.Fatalf("Find on a valid name errored: %v", err)
	}
	if _, err := Find("C-BO-MCS"); err != nil {
		t.Fatalf("Find should normalize case: %v", err)
	}
	_, err := Find("c-bo-mc") // one edit away
	if err == nil {
		t.Fatal("Find on a typo did not error")
	}
	msg := err.Error()
	for _, want := range []string{"did you mean", "c-bo-mcs", "valid locks"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
	// A hopeless name still lists the valid set, without suggestions.
	_, err = Find("zzzzzzzzzz")
	if err == nil {
		t.Fatal("Find on garbage did not error")
	}
	if strings.Contains(err.Error(), "did you mean") {
		t.Errorf("garbage name produced a suggestion: %v", err)
	}
	if !strings.Contains(err.Error(), "valid locks") {
		t.Errorf("error %q does not list valid locks", err)
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"mcs", "mcs", 0},
		{"mcs", "mc", 1},
		{"cna", "clh", 2},
		{"c-bo-mcs", "c-bo-bo", 3},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b); got != c.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestExtensionNames(t *testing.T) {
	names := ExtensionNames()
	want := map[string]bool{"cna": false, "gcr-mcs": false, "gcr-cna": false, "gcr-c-bo-mcs": false}
	for _, n := range names {
		e := MustLookup(n)
		if !e.Extension || e.NewMutex == nil {
			t.Errorf("%s listed as blocking extension but is not", n)
		}
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("extension lock %s missing from ExtensionNames", n)
		}
	}
}

func TestFigureAndTableNamesResolve(t *testing.T) {
	for _, name := range Figure2Names() {
		e := MustLookup(name)
		if e.NewMutex == nil {
			t.Errorf("Figure 2 lock %s is not blocking", name)
		}
	}
	for _, name := range Figure6Names() {
		e := MustLookup(name)
		if e.NewTry == nil {
			t.Errorf("Figure 6 lock %s is not abortable", name)
		}
	}
	for _, name := range TableNames() {
		e := MustLookup(name)
		if e.NewMutex == nil {
			t.Errorf("Table lock %s is not blocking", name)
		}
	}
}

func TestFigure2IncludesAllCohortBlockingLocks(t *testing.T) {
	want := map[string]bool{}
	for _, e := range Blocking() {
		if e.Cohort && !e.Extension {
			want[e.Name] = false
		}
	}
	for _, n := range Figure2Names() {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("cohort lock %s missing from Figure 2 set", name)
		}
	}
}

func TestBlockingAbortablePartition(t *testing.T) {
	blocking := Blocking()
	abortable := Abortable()
	if len(blocking) == 0 || len(abortable) == 0 {
		t.Fatal("expected both blocking and abortable entries")
	}
	// The paper's five blocking cohort locks, the C-BO-CLH extension,
	// and the two reader-writer cohort locks are marked Cohort among
	// blocking entries.
	n := 0
	for _, e := range blocking {
		if e.Cohort {
			n++
		}
	}
	if n != 8 {
		t.Errorf("blocking cohort locks = %d, want 8", n)
	}
	n = 0
	for _, e := range abortable {
		if e.Cohort {
			n++
		}
	}
	if n != 2 {
		t.Errorf("abortable cohort locks = %d, want 2", n)
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a, names := All(), Names()
	a[0].Name, names[0] = "mutated", "mutated"
	if All()[0].Name == "mutated" || Names()[0] == "mutated" {
		t.Error("All() or Names() exposes internal state")
	}
}
