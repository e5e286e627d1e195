package main

import (
	"testing"
	"time"
)

// A hand-built tree: a 100 ns call with two children that overlap each
// other, one of which sticks out past the call's end, and a grandchild.
func TestSelfTimeIsSpanMinusWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "call", Start: 0, End: 100},
		{ID: 2, Name: "wait", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "cs", Start: 30, End: 60, Parent: 1},    // overlaps wait on [30,40)
		{ID: 4, Name: "cs", Start: 90, End: 120, Parent: 1},   // clipped to [90,100)
		{ID: 5, Name: "inner", Start: 35, End: 50, Parent: 3}, // covers half of span 3
		{ID: 6, Name: "call", Start: 200, End: 250},           // childless
		{ID: 7, Name: "orphan", Start: 5, End: 9, Parent: 99}, // parent not recorded
	}
	got := selfTimes(spans)
	want := map[string]spanTotals{
		"call":   {Count: 2, Total: 150, Self: 150 - 50 - 10}, // children cover [10,60) and [90,100)
		"wait":   {Count: 1, Total: 30, Self: 30},
		"cs":     {Count: 2, Total: 60, Self: 60 - 15},
		"inner":  {Count: 1, Total: 15, Self: 15},
		"orphan": {Count: 1, Total: 4, Self: 4},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}

// The interposers, end to end on a small healthy server with two
// connections: every recorded round trip contains the server's handling
// of it, which contains the store's lock waits and critical sections.
func TestTracedWireNestsSpans(t *testing.T) {
	shape := wireShape{"rr", tagWireRR, 2048, 2, 1, 10}
	tr := newTracer(newTopology(), 2)
	st, err := buildWire(1, tr, shape, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	r, err := st.cells[0].window(150*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.ok != r.attempted || r.attempted == 0 {
		t.Fatalf("%d of %d requests verified on a healthy server", r.ok, r.attempted)
	}
	byID := map[int64]span{}
	for _, s := range tr.cells["rr"] {
		byID[s.ID] = s
	}
	var rtts, serves, nested int
	for _, s := range tr.cells["rr"] {
		switch s.Name {
		case spanWireRTT:
			rtts++
		case spanServe:
			if p, ok := byID[s.Parent]; !ok || p.Name != spanWireRTT || s.Request != p.Request || s.Start < p.Start {
				t.Fatalf("serve span %+v has parent %+v", s, p)
			}
			serves++
		case spanLockWait, spanStoreCS:
			if p, ok := byID[s.Parent]; ok && p.Name == spanServe && p.Request == s.Request && s.Start >= p.Start {
				nested++
			}
		}
	}
	if rtts == 0 || serves < rtts*9/10 || nested < serves {
		t.Errorf("%d round trips, %d serve spans under them, %d lock spans under those", rtts, serves, nested)
	}
	tot := selfTimes(tr.cells["rr"])
	if rtt, serve := tot[spanWireRTT], tot[spanServe]; rtt.Self <= 0 || rtt.Self >= rtt.Total || serve.Self <= 0 || serve.Self >= serve.Total {
		t.Errorf("round trip %+v, serve %+v: self time should be a proper part", rtt, serve)
	}
}
