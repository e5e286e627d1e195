package registry

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/numa"
)

// lockBytes is the heap a lock costs: the bytes allocated to build
// name on topo and to have every proc lock and unlock it once, from
// one goroutine (an abortable lock, built by NewTry, through
// TryLockFor). The topology, which every lock of a store shares, is
// not counted. It is the least of five tries, so an allocation by
// another goroutine of the test binary cannot inflate it.
func lockBytes(t *testing.T, name string, topo *numa.Topology) uint64 {
	e := MustLookup(name)
	best := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if e.NewTry != nil {
			l := e.NewTry(topo)
			for id := range topo.MaxProcs() {
				p := topo.Proc(id)
				if !l.TryLockFor(p, time.Second) {
					t.Fatalf("%s: TryLockFor failed on a free lock", name)
				}
				l.Unlock(p)
			}
		} else {
			l := e.NewMutex(topo)
			for id := range topo.MaxProcs() {
				p := topo.Proc(id)
				l.Lock(p)
				l.Unlock(p)
			}
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestLockBytes: a queue lock's per-proc records follow the procs that
// take it, and a proc's parker is the proc's, not the lock's. So a
// cluster's local lock holds records for that cluster's procs only,
// an A-CLH lock holds the nodes its procs have used, and a cohort
// lock of 256 procs costs tens of KiB, not hundreds. With one parker
// and one padded record per (lock, proc) made up front, c-bo-mcs and
// c-tkt-tkt cost 273.5 and 342.3 KiB at 256 procs and c-bo-clh 443.6
// KiB at 16; their bounds are a quarter of that or less. An abortable
// cohort keeps no per-proc record, so a-c-bo-bo is held to c-bo-bo's
// constant bound, and A-CLH nodes are heap records, not chunks of an
// index-addressed arena: with the arena and per-proc release closures,
// a-c-bo-bo cost 12.3 KiB at 256 procs, a-clh 122.0 and c-bo-clh and
// a-c-bo-clh 13.8 and 14.4 KiB at 16. Every other name is held to
// what it cost before (ROADMAP item 23's table). The whole table is
// logged.
func TestLockBytes(t *testing.T) {
	const kib = 1024
	names := []string{"mcs", "cna", "fc-mcs", "c-bo-bo", "c-bo-mcs", "c-tkt-tkt", "c-mcs-mcs", "c-bo-clh",
		"a-clh", "a-c-bo-bo", "a-c-bo-clh"}
	// limit[procs][name] is the most a name may cost, in KiB.
	limit := map[int]map[string]float64{
		16: {
			"mcs": 4.6, "cna": 5.0, "fc-mcs": 7.9, "c-bo-bo": 2.2,
			"c-bo-mcs": 19.5, "c-tkt-tkt": 22.9, "c-mcs-mcs": 24.0,
			"c-bo-clh": 10, "a-clh": 8, "a-c-bo-bo": 2.2, "a-c-bo-clh": 10,
		},
		256: {
			"mcs": 70, "cna": 78, "fc-mcs": 116, "c-bo-bo": 2.2,
			"c-bo-mcs": 68, "c-tkt-tkt": 86, "c-mcs-mcs": 350,
			"c-bo-clh": 110, "a-clh": 100, "a-c-bo-bo": 2.2, "a-c-bo-clh": 110,
		},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-6s", "procs")
	for _, name := range names {
		fmt.Fprintf(&table, " %10s", name)
	}
	for _, procs := range []int{16, 256} {
		topo := numa.New(4, procs)
		fmt.Fprintf(&table, "\n%-6d", procs)
		for _, name := range names {
			got := float64(lockBytes(t, name, topo)) / kib
			fmt.Fprintf(&table, " %6.1f KiB", got)
			if lim := limit[procs][name]; got > lim {
				t.Errorf("%s on numa.New(4, %d): %.1f KiB, want at most %.1f KiB", name, procs, got, lim)
			}
		}
	}
	t.Logf("bytes to build each lock and lock it once from every proc:\n%s", table.String())
}
