package registry

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/numa"
)

// lockBytes is the heap a lock costs: the bytes allocated to build
// name on topo and to have every proc lock and unlock it once, from
// one goroutine. The topology, which every lock of a store shares, is
// not counted. It is the least of five tries, so an allocation by
// another goroutine of the test binary cannot inflate it.
func lockBytes(t *testing.T, name string, topo *numa.Topology) uint64 {
	e := MustLookup(name)
	best := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l := e.NewMutex(topo)
		for id := range topo.MaxProcs() {
			p := topo.Proc(id)
			l.Lock(p)
			l.Unlock(p)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestLockBytes: a queue lock's per-proc records follow the procs that
// take it, and a proc's parker is the proc's, not the lock's. So a
// cluster's local lock holds records for that cluster's procs only,
// the A-CLH arena holds the nodes its procs have used, and a cohort
// lock of 256 procs costs tens of KiB, not hundreds. With one parker
// and one padded record per (lock, proc) made up front, c-bo-mcs and
// c-tkt-tkt cost 273.5 and 342.3 KiB at 256 procs and c-bo-clh 443.6
// KiB at 16; their bounds are a quarter of that or less. Every other
// name is held to what it cost then (ROADMAP item 23's table). The
// whole table is logged.
func TestLockBytes(t *testing.T) {
	const kib = 1024
	names := []string{"mcs", "cna", "fc-mcs", "c-bo-bo", "c-bo-mcs", "c-tkt-tkt", "c-mcs-mcs", "c-bo-clh"}
	// limit[procs][name] is the most a name may cost, in KiB.
	limit := map[int]map[string]float64{
		16: {
			"mcs": 4.6, "cna": 5.0, "fc-mcs": 7.9, "c-bo-bo": 2.2,
			"c-bo-mcs": 19.5, "c-tkt-tkt": 22.9, "c-mcs-mcs": 24.0,
			"c-bo-clh": 64,
		},
		256: {
			"mcs": 70, "cna": 78, "fc-mcs": 116, "c-bo-bo": 2.2,
			"c-bo-mcs": 68, "c-tkt-tkt": 86, "c-mcs-mcs": 350,
			"c-bo-clh": 607,
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
