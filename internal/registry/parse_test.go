package registry

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
)

// golden is the registry as it stood when names were a stamped list,
// less the fixed-policy comb- twins retired since (see retired): the 46
// names in presentation order, each with its non-nil faces (M
// NewMutex, T NewTry, R NewRW, E NewExec), whether it combines reads
// (X) and its flags (c Cohort, x Extension). Captured before the list
// became a parser.
var golden = [][2]string{
	{"pthread", "M"}, {"fib-bo", "M"}, {"mcs", "M"}, {"hbo", "MT"}, {"hbo-tuned", "MT"},
	{"hclh", "M"}, {"fc-mcs", "M"},
	{"c-bo-bo", "Mc"}, {"c-tkt-tkt", "Mc"}, {"c-bo-mcs", "Mc"}, {"c-tkt-mcs", "Mc"},
	{"c-mcs-mcs", "Mc"}, {"c-bo-clh", "Mcx"},
	{"cna", "Mx"}, {"gcr-mcs", "Mx"}, {"gcr-cna", "Mx"}, {"gcr-c-bo-mcs", "Mx"},
	{"rw-c-bo-mcs", "MRcx"}, {"rw-c-tkt-tkt", "MRcx"}, {"rw-cna", "MRx"}, {"rw-mcs", "MRx"},
	{"a-clh", "T"}, {"a-hbo", "T"}, {"a-c-bo-bo", "Tc"}, {"a-c-bo-clh", "Tc"},
	{"comb-a-pthread", "Ex"}, {"comb-a-fib-bo", "Ex"}, {"comb-a-mcs", "Ex"}, {"comb-a-hbo", "Ex"},
	{"comb-a-hbo-tuned", "Ex"}, {"comb-a-hclh", "Ex"}, {"comb-a-fc-mcs", "Ex"},
	{"comb-a-c-bo-bo", "Ex"}, {"comb-a-c-tkt-tkt", "Ex"}, {"comb-a-c-bo-mcs", "Ex"},
	{"comb-a-c-tkt-mcs", "Ex"}, {"comb-a-c-mcs-mcs", "Ex"}, {"comb-a-c-bo-clh", "Ex"}, {"comb-a-cna", "Ex"},
	{"comb-a-gcr-mcs", "Ex"}, {"comb-a-gcr-cna", "Ex"}, {"comb-a-gcr-c-bo-mcs", "Ex"},
	{"comb-a-rw-c-bo-mcs", "EXx"}, {"comb-a-rw-c-tkt-tkt", "EXx"}, {"comb-a-rw-cna", "EXx"}, {"comb-a-rw-mcs", "EXx"},
}

// retired are the fixed-policy combining names, valid until the
// load-adaptive policy became the only one; each names its comb-a-
// twin minus the "a-".
var retired = []string{
	"comb-pthread", "comb-fib-bo", "comb-mcs", "comb-hbo", "comb-hbo-tuned", "comb-hclh", "comb-fc-mcs",
	"comb-c-bo-bo", "comb-c-tkt-tkt", "comb-c-bo-mcs", "comb-c-tkt-mcs", "comb-c-mcs-mcs", "comb-c-bo-clh",
	"comb-cna", "comb-gcr-mcs", "comb-gcr-cna", "comb-gcr-c-bo-mcs",
	"comb-rw-c-bo-mcs", "comb-rw-c-tkt-tkt", "comb-rw-cna", "comb-rw-mcs",
}

func shape(e Entry) string {
	var b strings.Builder
	for _, f := range []struct {
		set  bool
		mark byte
	}{
		{e.NewMutex != nil, 'M'}, {e.NewTry != nil, 'T'}, {e.NewRW != nil, 'R'},
		{e.NewExec != nil, 'E'}, {e.CombinesReads(), 'X'}, {e.Cohort, 'c'}, {e.Extension, 'x'},
	} {
		if f.set {
			b.WriteByte(f.mark)
		}
	}
	return b.String()
}

// TestCanonicalNamesGolden: every name valid before the parser is
// still valid byte for byte, in the same order, with the same faces
// and flags, and resolves through the same Find as any composition.
func TestCanonicalNamesGolden(t *testing.T) {
	names := Names()
	if len(names) != len(golden) {
		t.Fatalf("Names() has %d names, want %d", len(names), len(golden))
	}
	for i, g := range golden {
		if names[i] != g[0] {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], g[0])
			continue
		}
		e, err := Find(g[0])
		if err != nil {
			t.Errorf("Find(%q): %v", g[0], err)
			continue
		}
		if e.Name != g[0] || shape(e) != g[1] {
			t.Errorf("Find(%q) = %q with faces %q, want faces %q", g[0], e.Name, shape(e), g[1])
		}
	}
}

// TestRetiredNamesSuggestTwin: a fixed-policy name no longer parses,
// and its error points at the comb-a- twin that replaced it.
func TestRetiredNamesSuggestTwin(t *testing.T) {
	for _, name := range retired {
		twin := WrapCombA + strings.TrimPrefix(name, "comb-")
		if !slices.Contains(Names(), twin) {
			t.Errorf("%s: twin %s is not canonical", name, twin)
		}
		_, err := Find(name)
		if err == nil {
			t.Errorf("Find(%q) succeeded; the fixed policy is retired", name)
			continue
		}
		if !strings.Contains(err.Error(), "did you mean") || !strings.Contains(err.Error(), twin) {
			t.Errorf("Find(%q) error %q does not suggest %s", name, err, twin)
		}
	}
}

// TestUnwrapWrapRoundTrip checks the interposition seam over the
// canonical list: a composed entry unwraps to its outermost wrapper and
// operand, wrapping them again rebuilds it, and nothing else unwraps.
func TestUnwrapWrapRoundTrip(t *testing.T) {
	for _, e := range All() {
		w, operand, ok := e.Unwrap()
		composed := false
		for _, prefix := range wrappers {
			composed = composed || strings.HasPrefix(e.Name, prefix)
		}
		if ok != composed {
			t.Errorf("%s: Unwrap ok = %v, want %v", e.Name, ok, composed)
		}
		if !ok {
			continue
		}
		again, err := Wrap(w, operand)
		if err != nil || again.Name != e.Name || shape(again) != shape(e) {
			t.Errorf("%s: Wrap(%q, %s) = %q %q, %v", e.Name, w, operand.Name, again.Name, shape(again), err)
		}
	}
	if _, err := Wrap("fc-", MustLookup("mcs")); err == nil {
		t.Error(`Wrap("fc-", mcs) succeeded; want the list of wrappers`)
	}
}

// TestParseAmbiguities pins that at most one wrapper matches a name,
// so a prefix never backtracks, and the two kinds of error: a name the
// grammar does not produce names the failing component (with
// suggestions and the grammar), a name that parses but cannot be built
// names the operand and why, and neither dumps the canonical list.
func TestParseAmbiguities(t *testing.T) {
	for name, operand := range map[string]string{
		"comb-a-mcs":        "mcs",
		"comb-a-hbo":        "hbo",
		"comb-a-c-bo-bo":    "c-bo-bo",
		"comb-a-rw-gcr-mcs": "rw-gcr-mcs",
	} {
		e, err := Find(name)
		if err != nil {
			t.Errorf("Find(%q): %v", name, err)
			continue
		}
		if _, op, _ := e.Unwrap(); op.Name != operand {
			t.Errorf("%s unwraps to %q, want %q", name, op.Name, operand)
		}
	}
	for name, wants := range map[string][]string{
		"comb-a-clh":     {`"clh" is not a lock`, "valid locks"}, // comb-a- over clh, never a reading over a-clh
		"comb-a-a-clh":   {"a-clh is abortable-only, comb-a- needs a blocking lock"},
		"rw-a-c-bo-bo":   {"a-c-bo-bo is abortable-only, rw- needs a blocking lock"},
		"gcr-comb-a-mcs": {"comb-a-mcs is a combining executor, gcr- needs a blocking lock"},
		"c-clh-mcs":      {`"clh" is not a global lock: bo, tkt, mcs`, "valid locks"},
		"a-c-tkt-bo":     {`"tkt" is not an abortable global lock: bo`},
		"c-bo-mc":        {`"mc" is not a local lock: bo, tkt, mcs, clh`, "did you mean", "c-bo-mcs"},
		"comb-a-gcr-mcx": {`"mcx" is not a lock`, "valid locks"},
		"comb-a-c-x-bo":  {`"x" is not a global lock`},
	} {
		_, err := Find(name)
		if err == nil {
			t.Errorf("Find(%q) succeeded", name)
			continue
		}
		for _, want := range wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Find(%q) error %q does not mention %q", name, err, want)
			}
		}
		if strings.Contains(err.Error(), "comb-a-rw-c-tkt-tkt") {
			t.Errorf("Find(%q) error dumps the canonical list: %q", name, err)
		}
	}
}

// TestUnregisteredCompositions runs compositions nobody listed through
// the same harnesses as the canonical entries: the name alone is enough
// to get a correct lock.
func TestUnregisteredCompositions(t *testing.T) {
	for _, name := range []string{"c-tkt-clh", "c-mcs-tkt", "gcr-rw-cna", "rw-gcr-mcs", "comb-a-rw-gcr-mcs"} {
		if slices.Contains(Names(), name) {
			t.Fatalf("%s is canonical; pick a composition that is not", name)
		}
		e, err := Find(name)
		if err != nil {
			t.Errorf("Find(%q): %v", name, err)
			continue
		}
		t.Run(name, func(t *testing.T) {
			topo := numa.New(2, 8)
			if e.NewMutex != nil {
				locktest.Check(t, topo, locks.ExecFromMutex(e.NewMutex(topo)), 0, 8, 150)
			}
			if f := e.RWFactory(topo); f != nil {
				locktest.Check(t, topo, locks.ExecFromRWMutex(f()), 5, 3, 150)
			}
			locktest.Check(t, topo, e.ExecFactory(topo)(), 0, 8, 150)
			if e.CombinesReads() {
				locktest.Check(t, topo, e.ExecFactory(topo)(), 5, 3, 150)
			}
		})
	}
}

// FuzzParseLockName: Find never panics, and a name it accepts comes
// back as its normalized self — the parser consumed all of it and
// nothing else. The seeds (every canonical and retired name, the
// ambiguity cases and garbage) run under plain go test.
func FuzzParseLockName(f *testing.F) {
	for _, g := range golden {
		f.Add(g[0])
	}
	for _, name := range retired {
		f.Add(name)
	}
	for _, s := range []string{
		"comb-a-mcs", "comb-a-clh", "comb-a-c-bo-bo", "c-clh-mcs", "a-c-tkt-bo", "C-BO-MCS ", "rw-rw-gcr-comb-mcs",
		"comb-a-rw-gcr-mcs", "c-tkt-clh", "", "-", "c-", "c--", "a-c-", "comb-", "comb-a-", "rw-rw-rw-", "c-bo-mcs-x",
		"zzzzzzzzzz", "c-\xff-mcs", "gcr-\x00",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		e, err := Find(name)
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("Find(%q): empty error", name)
			}
			return
		}
		if e.Name != normalize(name) {
			t.Fatalf("Find(%q).Name = %q, want %q", name, e.Name, normalize(name))
		}
		if e.NewMutex == nil && e.NewTry == nil && e.NewExec == nil {
			t.Fatalf("Find(%q) built an entry with no face", name)
		}
		if _, ok := Lookup(e.Name); !ok {
			t.Fatalf("Find(%q) accepted, Lookup(%q) did not", name, e.Name)
		}
	})
}
