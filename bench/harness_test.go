package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// Two checks in the spirit of locktest's broken locks: the harness
// must object when the code under it is broken.

// brokenMutex lets everybody in.
type brokenMutex struct{}

func (brokenMutex) Lock(*proc)   {}
func (brokenMutex) Unlock(*proc) {}

func TestNoOpMutexDrivesLockHandoffOKShareBelowOne(t *testing.T) {
	if raceEnabled {
		t.Skip("a lock that does not lock is a data race by construction")
	}
	topo := newTopology()
	c := &lockCell{name: "broken.cross", lock: brokenMutex{}, procs: [2]*proc{topo.Proc(0), topo.Proc(1)},
		cs: newCriticalSection(topo), lastCluster: -1}
	if err := c.precheck(); err == nil {
		t.Error("the pre-check accepts a lock that does not lock")
	}
	r, err := c.window(1, 0)(200*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted == 0 || r.ok >= r.attempted {
		t.Errorf("%d of %d operations verified under a lock that does not lock", r.ok, r.attempted)
	}

	good, err := lockStack(1, []*lockCell{{name: "c-bo-mcs.cross", lock: newCBOMCS(topo),
		procs: [2]*proc{topo.Proc(0), topo.Proc(1)}, cs: newCriticalSection(topo)}})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := good.cells[0].window(50*time.Millisecond, 0); r.attempted == 0 || r.ok != r.attempted {
		t.Errorf("%d of %d operations verified under c-bo-mcs", r.ok, r.attempted)
	}
}

func TestServerDroppingAckedWritesDrivesOKShareBelowOne(t *testing.T) {
	shape := wireShape{"pipelined", tagWirePipelined, 4096, 1, 32, 5}
	s, missing, err := newWireStack(nil, shape, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.srv.stop()
	// Every set was acknowledged, a quarter were dropped: only the
	// read-back sees it.
	if len(missing) < shape.keys/5 || len(missing) > shape.keys/3 {
		t.Errorf("read-back finds %d of %d acknowledged sets missing, want about a quarter", len(missing), shape.keys)
	}
	r, err := s.window(1)(100*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted == 0 || r.ok >= r.attempted {
		t.Errorf("%d of %d requests verified on a server that drops acknowledged writes", r.ok, r.attempted)
	}
	if _, err := buildWire(1, nil, shape, true); err == nil {
		t.Error("set-up succeeds on a server that drops acknowledged writes")
	}
}

func TestNormalizeArgs(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "wire-rr", "--seed", "3", "--seconds", "10", "--trace", "0"}, []string{"--workload", "wire-rr", "--seed", "3", "--seconds", "10", "-trace=0"}},
		{[]string{"--trace", "1", "-seed", "2"}, []string{"-trace=1", "-seed", "2"}},
		{[]string{"-trace"}, []string{"-trace=1"}},
		{[]string{"-trace", "-workload", "x"}, []string{"-trace=1", "-workload", "x"}},
	} {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// BENCHMARK.json declares what the program prints; keep them equal.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []decl `json:"end_to_end"`
		PerLayer   []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", b.RunSeconds, defaultSeconds)
	}
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
		if wl := findWorkload(w.Name); wl == nil || wl.why != w.Why {
			t.Errorf("workload %q: why differs from the program's", w.Name)
		}
	}
	if len(ws) != len(allWorkloads) {
		t.Errorf("workloads %q", ws)
	}
	same := func(kind string, got []decl, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d printed", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s %d: declared %+v, printed %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
}
