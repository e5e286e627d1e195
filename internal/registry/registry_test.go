package registry

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/numa"
)

func TestAllEntriesBuildable(t *testing.T) {
	topo := numa.New(4, 8)
	for _, e := range entries() {
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
	}
}

func TestCombiningEntriesDerived(t *testing.T) {
	// Every blocking lock must have a comb-a-* twin, and every comb-a-*
	// entry must point back at a blocking base.
	topo := numa.New(2, 4)
	byName := map[string]Entry{}
	for _, e := range entries() {
		byName[e.Name] = e
	}
	for _, e := range entries() {
		if e.NewMutex == nil {
			continue
		}
		comb, ok := byName[WrapCombA+e.Name]
		if !ok {
			t.Errorf("blocking lock %s has no %s%s entry", e.Name, WrapCombA, e.Name)
			continue
		}
		if w, operand, ok := comb.Unwrap(); comb.NewExec == nil || !ok || w != WrapCombA || operand.Name != e.Name {
			t.Errorf("%s: want NewExec set, Unwrap = (%q, %s)", comb.Name, WrapCombA, e.Name)
		}
		if comb.NewMutex != nil || comb.NewTry != nil || comb.NewRW != nil {
			t.Errorf("%s: derived entries are exec-only", comb.Name)
		}
		// Native RW bases derive the reader-writer twin, whose reads
		// take the base's shared mode.
		if _, rw := comb.NewExec(topo).(*locks.RWCombining); rw != (e.NewRW != nil) {
			t.Errorf("%s: builds an RWCombining = %v, want the base's NewRW != nil (%v)", comb.Name, rw, e.NewRW != nil)
		}
	}
	// The derived entries build the combiner itself, whose occupancy
	// estimate reads zero while nothing is in flight; the RW twin is
	// the combiner over the lock's exclusive face.
	if x, ok := byName["comb-a-mcs"].NewExec(topo).(*locks.Combining); !ok || x.OccupancyEstimate() != 0 {
		t.Errorf("comb-a-mcs: want an idle *locks.Combining, got %T", byName["comb-a-mcs"].NewExec(topo))
	}
	if x, ok := byName["comb-a-rw-mcs"].NewExec(topo).(*locks.RWCombining); !ok || x.OccupancyEstimate() != 0 {
		t.Errorf("comb-a-rw-mcs: want an idle *locks.RWCombining, got %T", byName["comb-a-rw-mcs"].NewExec(topo))
	}
	for _, e := range entries() {
		if e.NewExec == nil {
			continue
		}
		_, operand, ok := e.Unwrap()
		if !ok || operand.NewMutex == nil {
			t.Errorf("%s: operand %q is not a blocking entry", e.Name, operand.Name)
		}
	}
}

func TestLookupNormalizesCase(t *testing.T) {
	// CLI users type names as the paper prints them.
	for _, name := range []string{"C-BO-MCS", "c-bo-mcs", " c-bo-mcs ", "CNA", "GCR-MCS"} {
		if _, err := Find(name); err != nil {
			t.Errorf("Find(%q): %v; names should be case- and space-insensitive", name, err)
		}
	}
}

// TestFindOptionsReachEveryCohort: the options given to Find configure
// the cohort lock a name spells, bare or under wrappers, survive
// Unwrap, and are refused by a name without a cohort lock.
func TestFindOptionsReachEveryCohort(t *testing.T) {
	topo := numa.New(2, 4)
	limit := func(name string, m any) int64 {
		switch c := m.(type) {
		case *core.CohortLock:
			return c.HandoffLimit()
		case *core.AbortableCohortLock:
			return c.HandoffLimit()
		}
		t.Fatalf("%s built %T, not a cohort lock", name, m)
		return 0
	}
	c, err := Find("c-tkt-tkt", core.WithHandoffLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := limit(c.Name, c.NewMutex(topo)); got != 5 {
		t.Errorf("c-tkt-tkt HandoffLimit = %d, want 5", got)
	}
	a, err := Find("a-c-bo-clh", core.WithHandoffLimit(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := limit(a.Name, a.NewTry(topo)); got != 7 {
		t.Errorf("a-c-bo-clh HandoffLimit = %d, want 7", got)
	}
	comb, err := Find("comb-a-c-tkt-tkt", core.WithHandoffLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	_, operand, ok := comb.Unwrap()
	if !ok {
		t.Fatal("comb-a-c-tkt-tkt does not unwrap")
	}
	if got := limit(operand.Name, operand.NewMutex(topo)); got != 5 {
		t.Errorf("comb-a-c-tkt-tkt's operand HandoffLimit = %d, want 5: Unwrap lost the options", got)
	}
	for _, name := range []string{"mcs", "gcr-cna"} {
		if _, err := Find(name, core.WithHandoffLimit(5)); err == nil {
			t.Errorf("Find(%q) with a hand-off limit succeeded; it has no cohort lock to take it", name)
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
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on unknown name did not panic")
		}
	}()
	MustLookup("nonsense")
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
	// Every canonical blocking cohort lock is in Figure 2, except
	// c-bo-clh: the paper builds no CLH local.
	want := map[string]bool{}
	for _, name := range Names() {
		if strings.HasPrefix(name, "c-") && name != "c-bo-clh" {
			want[name] = false
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
	// The paper's five blocking cohort locks, the C-BO-CLH extension,
	// and the two reader-writer cohort locks are the blocking cohort
	// names; the two abortable ones are the abortable cohort names.
	var blocking, abortable int
	for _, e := range entries() {
		if e.NewMutex != nil && strings.HasPrefix(strings.TrimPrefix(e.Name, WrapRW), "c-") {
			blocking++
		}
		if e.NewTry != nil && strings.HasPrefix(e.Name, "a-c-") {
			abortable++
		}
	}
	if blocking != 8 {
		t.Errorf("blocking cohort locks = %d, want 8", blocking)
	}
	if abortable != 2 {
		t.Errorf("abortable cohort locks = %d, want 2", abortable)
	}
}
