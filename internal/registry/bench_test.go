package registry

import (
	"strings"
	"testing"

	"repro/internal/numa"
)

// BenchmarkUncontended measures single-thread lock+unlock latency for
// every blocking lock — the low-contention overhead discussion of
// §4.1.3 (here ns/op is the metric itself) — and, as exec/<name> rows,
// what one proc pays to run a no-op closure through each executor over
// c-bo-mcs: the bare bracket, then the combining core, whose distance
// from it is the combiner's fixed cost when there is nothing to
// combine, and the reader-writer executor's ExecShared, one RLock.
// State -cpu (say -cpu 2) when comparing exec rows: numa.New
// sets the spin discipline from GOMAXPROCS, and a combiner's
// batch-boundary yield only costs anything under the oversubscribed
// one.
func BenchmarkUncontended(b *testing.B) {
	for _, name := range Names() {
		e := MustLookup(name)
		if e.NewMutex == nil {
			continue
		}
		b.Run(name, func(b *testing.B) {
			topo := numa.New(4, 4)
			l := e.NewMutex(topo)
			p := topo.Proc(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock(p)
				l.Unlock(p)
			}
		})
	}
	for _, name := range []string{"c-bo-mcs", "comb-a-c-bo-mcs", "comb-a-rw-c-bo-mcs"} {
		b.Run("exec/"+name, func(b *testing.B) {
			topo := numa.New(2, 4)
			e := MustLookup(name)
			x := e.ExecFactory(topo)()
			exec := x.Exec
			if strings.HasPrefix(name, "comb-a-rw-") {
				exec = x.ExecShared
			}
			p := topo.Proc(0)
			fn := func() {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exec(p, fn)
			}
		})
	}
}
