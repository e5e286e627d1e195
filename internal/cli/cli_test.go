package cli

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestParseIntList(t *testing.T) {
	got, err := ParseIntList("1, 4,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 16 {
		t.Fatalf("got %v", got)
	}
	for _, bad := range []string{"", "a", "1,,2", "0", "-3", "1,x"} {
		if _, err := ParseIntList(bad); err == nil {
			t.Errorf("ParseIntList(%q) accepted", bad)
		}
	}
}

func TestParseNameList(t *testing.T) {
	got := ParseNameList(" mcs, c-bo-mcs ,,hbo ")
	want := []string{"mcs", "c-bo-mcs", "hbo"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestLocks(t *testing.T) {
	// Each name comes back as the registry spells it.
	got, err := Locks("mcs, C-BO-MCS")
	if err != nil || !slices.Equal(got, []string{"mcs", "c-bo-mcs"}) {
		t.Fatalf("got %v, %v", got, err)
	}
	if got, err := Locks(""); err != nil || got != nil {
		t.Fatalf("empty spec: got %v, %v", got, err)
	}
	// Unknown names fail with the registry's suggestion — the shared
	// "did you mean" path every tool now reports from.
	_, err = Locks("mcs,msc")
	if err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Fatalf("want did-you-mean error, got %v", err)
	}
}

func TestPositive(t *testing.T) {
	if err := Positive("conns", 1); err != nil {
		t.Fatal(err)
	}
	if err := Positive("conns", 0); err == nil {
		t.Error("Positive(0) accepted")
	}
	if err := Positive("keys", uint64(0)); err == nil {
		t.Error("Positive(uint64(0)) accepted")
	}
	if err := Positive("duration", time.Duration(0)); err == nil || !strings.Contains(err.Error(), "got 0s") {
		t.Errorf("Positive(0s) = %v, want a rejection naming 0s", err)
	}
}

func TestEmit(t *testing.T) {
	tb := stats.NewTable("x", "a")
	tb.AddRow("1")
	if !strings.Contains(Emit(tb, true), "a\n1\n") {
		t.Error("CSV emit wrong")
	}
	if !strings.Contains(Emit(tb, false), "# x") {
		t.Error("text emit wrong")
	}
}
