// Package registry maps the paper's lock names to factories, so every
// harness, tool and benchmark selects locks the same way and reports
// them under the paper's nomenclature.
package registry

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/numa"
)

// Entry describes one lock under evaluation.
type Entry struct {
	// Name is the paper's name for the lock (lower-cased).
	Name string
	// Desc is a one-line description for tool output.
	Desc string
	// NewMutex builds a blocking instance; nil for abortable-only locks.
	NewMutex func(topo *numa.Topology) locks.Mutex
	// NewTry builds an abortable instance; nil for non-abortable locks.
	NewTry func(topo *numa.Topology) locks.TryMutex
	// NewRW builds a genuine reader-writer instance (shared mode admits
	// concurrent readers); nil for exclusive-only locks. Exclusive
	// entries still adapt to the RW interface through RWFactory.
	NewRW func(topo *numa.Topology) locks.RWMutex
	// NewExec builds a genuinely combining executor (delegated batches,
	// one underlying acquisition per batch); nil for plain locks, which
	// still adapt to the Executor interface through ExecFactory. Set on
	// the derived comb-* and comb-a-* entries.
	NewExec func(topo *numa.Topology) locks.Executor
	// WrapExec is the derived entry's combining construction with the
	// base lock factored out: WrapExec(topo, m) builds the same
	// executor NewExec would, but over the caller's m. Tools use it to
	// interpose measurement — an acquisition counter — between the
	// combiner and the underlying lock without hardcoding which
	// construction (fixed or adaptive) the entry names. Nil on primary
	// entries.
	WrapExec func(topo *numa.Topology, m locks.Mutex) locks.Executor
	// NewRWExec builds a genuinely combining reader-writer executor
	// (same-cluster shared closures harvested under one RLock per
	// batch, exclusive closures under one Lock); set only on the comb-*
	// twins derived from native RW entries. Entries without it still
	// adapt through RWExecFactory.
	NewRWExec func(topo *numa.Topology) locks.RWExecutor
	// WrapRWExec is NewRWExec with the base lock factored out:
	// WrapRWExec(topo, l) builds the same combining RWExecutor over the
	// caller's l, so tools can interpose measurement — a
	// CountRWAcquisitions wrapper — between the reader-combiner and the
	// underlying lock. Nil wherever NewRWExec is nil.
	WrapRWExec func(topo *numa.Topology, l locks.RWMutex) locks.RWExecutor
	// Base names the entry a derived construction wraps ("" for primary
	// entries); tools use it to build the underlying lock a WrapExec
	// interposition needs.
	Base string
	// Cohort marks the paper's contributed locks.
	Cohort bool
	// Extension marks locks beyond the paper's evaluation set (enabled
	// by the transformation but not part of its figures/tables).
	Extension bool
}

// entries is the master list, in the paper's presentation order.
var entries = []Entry{
	{
		Name: "pthread", Desc: "blocking mutex baseline (sync.Mutex, plays pthread_mutex)",
		NewMutex: func(*numa.Topology) locks.Mutex { return locks.NewPthread() },
	},
	{
		Name: "fib-bo", Desc: "test-and-test-and-set lock with Fibonacci backoff",
		NewMutex: func(*numa.Topology) locks.Mutex { return locks.NewBO(locks.FibBOConfig()) },
	},
	{
		Name: "mcs", Desc: "MCS queue lock (NUMA-oblivious baseline)",
		NewMutex: func(t *numa.Topology) locks.Mutex { return locks.NewMCS(t) },
	},
	{
		Name: "hbo", Desc: "hierarchical backoff lock, microbenchmark-tuned parameters",
		NewMutex: func(*numa.Topology) locks.Mutex { return locks.NewHBO(locks.LBenchHBOConfig()) },
		NewTry:   func(*numa.Topology) locks.TryMutex { return locks.NewHBO(locks.LBenchHBOConfig()) },
	},
	{
		Name: "hbo-tuned", Desc: "hierarchical backoff lock, application-tuned parameters",
		NewMutex: func(*numa.Topology) locks.Mutex { return locks.NewHBO(locks.AppHBOConfig()) },
		NewTry:   func(*numa.Topology) locks.TryMutex { return locks.NewHBO(locks.AppHBOConfig()) },
	},
	{
		Name: "hclh", Desc: "hierarchical CLH lock (Luchangco et al.)",
		NewMutex: func(t *numa.Topology) locks.Mutex { return locks.NewHCLH(t) },
	},
	{
		Name: "fc-mcs", Desc: "flat-combining MCS lock (Dice et al.)",
		NewMutex: func(t *numa.Topology) locks.Mutex { return locks.NewFCMCS(t) },
	},
	{
		Name: "c-bo-bo", Desc: "cohort lock: global BO over local BO (paper §3.1)", Cohort: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewCBOBO(t) },
	},
	{
		Name: "c-tkt-tkt", Desc: "cohort lock: global ticket over local ticket (§3.2)", Cohort: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewCTKTTKT(t) },
	},
	{
		Name: "c-bo-mcs", Desc: "cohort lock: global BO over local MCS (§3.3)", Cohort: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewCBOMCS(t) },
	},
	{
		Name: "c-tkt-mcs", Desc: "cohort lock: global ticket over local MCS (§3.5)", Cohort: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewCTKTMCS(t) },
	},
	{
		Name: "c-mcs-mcs", Desc: "cohort lock: global MCS over local MCS (§3.4)", Cohort: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewCMCSMCS(t) },
	},
	{
		Name: "c-bo-clh", Desc: "cohort lock: global BO over local CLH (extension, §3's generality claim)", Cohort: true, Extension: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewCBOCLH(t) },
	},
	{
		Name: "cna", Desc: "compact NUMA-aware queue lock (Dice & Kogan, EuroSys '19)", Extension: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return locks.NewCNA(t) },
	},
	{
		Name: "gcr-mcs", Desc: "concurrency restriction (GCR) over the MCS queue lock", Extension: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewRestricted(t, locks.NewMCS(t), 0) },
	},
	{
		Name: "gcr-cna", Desc: "concurrency restriction (GCR) over the CNA lock", Extension: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewRestricted(t, locks.NewCNA(t), 0) },
	},
	{
		Name: "gcr-c-bo-mcs", Desc: "concurrency restriction (GCR) over the C-BO-MCS cohort lock", Extension: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewRestricted(t, core.NewCBOMCS(t), 0) },
	},
	{
		Name: "rw-c-bo-mcs", Desc: "reader-writer cohort lock: per-cluster readers over C-BO-MCS writers", Cohort: true, Extension: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewRWCBOMCS(t) },
		NewRW:    func(t *numa.Topology) locks.RWMutex { return core.NewRWCBOMCS(t) },
	},
	{
		Name: "rw-c-tkt-tkt", Desc: "reader-writer cohort lock: per-cluster readers over C-TKT-TKT writers", Cohort: true, Extension: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return core.NewRWCohort(t, core.NewCTKTTKT(t)) },
		NewRW:    func(t *numa.Topology) locks.RWMutex { return core.NewRWCohort(t, core.NewCTKTTKT(t)) },
	},
	{
		Name: "rw-cna", Desc: "reader-writer lock: per-cluster readers over a CNA writer queue", Extension: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return locks.NewRWPerCluster(t, locks.NewCNA(t)) },
		NewRW:    func(t *numa.Topology) locks.RWMutex { return locks.NewRWPerCluster(t, locks.NewCNA(t)) },
	},
	{
		Name: "rw-mcs", Desc: "reader-writer lock: per-cluster readers over a plain MCS writer queue", Extension: true,
		NewMutex: func(t *numa.Topology) locks.Mutex { return locks.NewRWPerCluster(t, locks.NewMCS(t)) },
		NewRW:    func(t *numa.Topology) locks.RWMutex { return locks.NewRWPerCluster(t, locks.NewMCS(t)) },
	},
	{
		Name: "a-clh", Desc: "abortable CLH lock (Scott), abortable baseline",
		NewTry: func(t *numa.Topology) locks.TryMutex { return locks.NewACLH(t) },
	},
	{
		Name: "a-hbo", Desc: "abortable hierarchical backoff lock",
		NewTry: func(*numa.Topology) locks.TryMutex { return locks.NewHBO(locks.LBenchHBOConfig()) },
	},
	{
		Name: "a-c-bo-bo", Desc: "abortable cohort lock: global BO over abortable local BO (§3.6.1)", Cohort: true,
		NewTry: func(t *numa.Topology) locks.TryMutex { return core.NewACBOBO(t) },
	},
	{
		Name: "a-c-bo-clh", Desc: "abortable cohort lock: global BO over abortable local CLH (§3.6.2)", Cohort: true,
		NewTry: func(t *numa.Topology) locks.TryMutex { return core.NewACBOCLH(t) },
	},
}

// init derives a comb-<name> and a comb-a-<name> entry for every
// blocking lock: the same construction wrapped in the fixed-policy and
// the load-adaptive combining executor, so every lock in the registry
// — cohort, CNA, GCR, rw-* — is also available as a combining lock in
// both tunings. Derived entries are exec-only (a combining lock cannot
// expose Lock/Unlock: the critical section is delegated, never held by
// the caller) and point back at their base entry, with WrapExec
// exposing the construction itself, for tools that interpose on the
// underlying lock.
//
// Bases with a native RW construction derive the reader-writer twin
// instead: comb-rw-* entries are RWCombining executors whose exclusive
// closures batch exactly as comb-* does, and whose shared closures are
// harvested per cluster under ONE RLock per batch (NewRWExec and
// WrapRWExec expose the shared-aware construction; NewExec returns the
// same executor so exec-shaped consumers get the RW one and can detect
// it). WrapExec stays mutex-shaped for those entries — combining over
// the caller's exclusive lock — so acquisition-counting tools keep one
// interposition seam across the whole comb-* family.
func init() {
	policies := []struct {
		prefix, exec, rw string
		wrap             func(*numa.Topology, locks.Mutex) *locks.Combining
		wrapRW           func(*numa.Topology, locks.RWMutex) *locks.RWCombining
	}{
		{
			prefix: "comb-",
			exec:   "combining executor over %s: delegated same-cluster batches, one acquisition per batch",
			rw:     "combining reader-writer executor over %s: batched exclusive closures, same-cluster reads harvested under one RLock",
			wrap:   locks.NewCombining, wrapRW: locks.NewRWCombining,
		},
		{
			prefix: "comb-a-",
			exec:   "adaptive combining executor over %s: occupancy-scaled patience and harvest passes",
			rw:     "adaptive combining reader-writer executor over %s: occupancy-scaled patience and passes on both modes",
			wrap:   locks.NewCombiningAdaptive, wrapRW: locks.NewRWCombiningAdaptive,
		},
	}
	base := make([]Entry, len(entries))
	copy(base, entries)
	for _, e := range base {
		if e.NewMutex == nil {
			continue
		}
		for _, pol := range policies {
			newMutex, newRW, wrap, wrapRW := e.NewMutex, e.NewRW, pol.wrap, pol.wrapRW
			d := Entry{
				Name:      pol.prefix + e.Name,
				Desc:      fmt.Sprintf(pol.exec, e.Name),
				Base:      e.Name,
				Extension: true,
				WrapExec:  func(t *numa.Topology, m locks.Mutex) locks.Executor { return wrap(t, m) },
				NewExec:   func(t *numa.Topology) locks.Executor { return wrap(t, newMutex(t)) },
			}
			if newRW != nil {
				d.Desc = fmt.Sprintf(pol.rw, e.Name)
				d.WrapRWExec = func(t *numa.Topology, l locks.RWMutex) locks.RWExecutor { return wrapRW(t, l) }
				d.NewRWExec = func(t *numa.Topology) locks.RWExecutor { return wrapRW(t, newRW(t)) }
				d.NewExec = func(t *numa.Topology) locks.Executor { return wrapRW(t, newRW(t)) }
			}
			entries = append(entries, d)
		}
	}
}

// MutexFactory returns a factory that builds independent blocking
// instances of this lock for topo, or nil if the entry is not
// blocking. The factory is safe to call any number of times; every
// call constructs a fresh, unshared lock. Sharded stores use this to
// build one lock per shard from a single registry name.
func (e Entry) MutexFactory(topo *numa.Topology) func() locks.Mutex {
	if e.NewMutex == nil {
		return nil
	}
	return func() locks.Mutex { return e.NewMutex(topo) }
}

// TryFactory is MutexFactory for the abortable interface, or nil if
// the entry is not abortable.
func (e Entry) TryFactory(topo *numa.Topology) func() locks.TryMutex {
	if e.NewTry == nil {
		return nil
	}
	return func() locks.TryMutex { return e.NewTry(topo) }
}

// RWFactory returns a factory building independent reader-writer
// instances of this lock for topo, or nil if the entry cannot lock at
// all. Entries with a native RW construction (NewRW) yield genuinely
// shared readers; exclusive-only entries are adapted through
// locks.RWFromMutex, so every blocking lock in the registry slots into
// an RW-shaped consumer (the kvstore) and keeps its exact exclusive
// behavior (locks.SharesReads reports which case was built).
func (e Entry) RWFactory(topo *numa.Topology) func() locks.RWMutex {
	if e.NewRW != nil {
		return func() locks.RWMutex { return e.NewRW(topo) }
	}
	if e.NewMutex == nil {
		return nil
	}
	return func() locks.RWMutex { return locks.RWFromMutex(e.NewMutex(topo)) }
}

// ExecFactory returns a factory building independent executors of this
// lock for topo, or nil if the entry cannot execute closures at all.
// comb-* entries yield genuinely combining executors (NewExec);
// plain blocking entries adapt through locks.ExecFromMutex — correct,
// one acquisition per closure — so every lock in the registry slots
// into an executor-shaped consumer (locks.Combines reports which case
// was built).
func (e Entry) ExecFactory(topo *numa.Topology) func() locks.Executor {
	if e.NewExec != nil {
		return func() locks.Executor { return e.NewExec(topo) }
	}
	if e.NewMutex == nil {
		return nil
	}
	return func() locks.Executor { return locks.ExecFromMutex(e.NewMutex(topo)) }
}

// RWExecFactory returns a factory building independent shared-mode
// executors of this lock for topo (locks.RWExecutor: exclusive plus
// shared closures), or nil if the entry cannot lock at all. comb-rw-*
// entries yield genuinely combining RW executors (NewRWExec); entries
// with a native RW construction yield one-acquisition-per-closure
// executors whose shared closures genuinely coexist; exclusive-only
// entries serialize them (locks.SharesExecReads reports sharing,
// locks.Combines reports batching).
func (e Entry) RWExecFactory(topo *numa.Topology) func() locks.RWExecutor {
	if e.NewRWExec != nil {
		return func() locks.RWExecutor { return e.NewRWExec(topo) }
	}
	f := e.RWFactory(topo)
	if f == nil {
		return nil
	}
	return func() locks.RWExecutor { return locks.ExecFromRWMutex(f()) }
}

// BuildMutexes constructs n independent blocking instances of this
// lock. It panics if the entry is not blocking; callers select from
// Blocking() or check NewMutex first.
func (e Entry) BuildMutexes(topo *numa.Topology, n int) []locks.Mutex {
	f := e.MutexFactory(topo)
	if f == nil {
		panic(fmt.Sprintf("registry: %s has no blocking factory", e.Name))
	}
	out := make([]locks.Mutex, n)
	for i := range out {
		out[i] = f()
	}
	return out
}

// BuildRWMutexes constructs n independent reader-writer instances of
// this lock (native RW or exclusive-adapted; see RWFactory). It panics
// if the entry cannot lock at all.
func (e Entry) BuildRWMutexes(topo *numa.Topology, n int) []locks.RWMutex {
	f := e.RWFactory(topo)
	if f == nil {
		panic(fmt.Sprintf("registry: %s has no reader-writer factory", e.Name))
	}
	out := make([]locks.RWMutex, n)
	for i := range out {
		out[i] = f()
	}
	return out
}

// All returns every registered entry, in presentation order.
func All() []Entry {
	out := make([]Entry, len(entries))
	copy(out, entries)
	return out
}

// normalize maps user-supplied spellings onto registry names: names
// are registered lower-case, but CLI users type C-BO-MCS as the paper
// prints it.
func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Lookup finds an entry by name, case-insensitively.
func Lookup(name string) (Entry, bool) {
	name = normalize(name)
	for _, e := range entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Find is Lookup with a CLI-grade error: unknown names produce a "did
// you mean" suggestion (close or substring matches) plus the full list
// of valid names, so a typo never dead-ends.
func Find(name string) (Entry, error) {
	if e, ok := Lookup(name); ok {
		return e, nil
	}
	var msg strings.Builder
	fmt.Fprintf(&msg, "unknown lock %q", name)
	if s := suggest(normalize(name)); len(s) > 0 {
		fmt.Fprintf(&msg, " — did you mean %s?", strings.Join(s, ", "))
	}
	fmt.Fprintf(&msg, " (valid locks: %s)", strings.Join(Names(), ", "))
	return Entry{}, errors.New(msg.String())
}

// suggest returns registered names within edit distance 2 of name, or
// failing that, names containing (or contained in) it.
func suggest(name string) []string {
	var near, sub []string
	for _, e := range entries {
		if editDistance(name, e.Name) <= 2 {
			near = append(near, e.Name)
		} else if name != "" && (strings.Contains(e.Name, name) || strings.Contains(name, e.Name)) {
			sub = append(sub, e.Name)
		}
	}
	if len(near) > 0 {
		return near
	}
	return sub
}

// editDistance is the Levenshtein distance between a and b, two rows
// at a time; the inputs are short lock names, so no cutoffs needed.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// MustLookup is Lookup that panics on unknown names; tools use it
// after validating flags.
func MustLookup(name string) Entry {
	e, err := Find(name)
	if err != nil {
		panic("registry: " + err.Error())
	}
	return e
}

// Names lists every registered lock name, in presentation order.
func Names() []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Name
	}
	return out
}

// Blocking returns the entries usable as blocking locks, in order.
func Blocking() []Entry {
	var out []Entry
	for _, e := range entries {
		if e.NewMutex != nil {
			out = append(out, e)
		}
	}
	return out
}

// Abortable returns the entries usable as abortable locks, in order.
func Abortable() []Entry {
	var out []Entry
	for _, e := range entries {
		if e.NewTry != nil {
			out = append(out, e)
		}
	}
	return out
}

// RW returns the entries with a native reader-writer construction
// (shared mode admits concurrent readers), in order.
func RW() []Entry {
	var out []Entry
	for _, e := range entries {
		if e.NewRW != nil {
			out = append(out, e)
		}
	}
	return out
}

// RWNames lists the native reader-writer lock names, in presentation
// order — the `rw-*` column set of kvbench's read-path table.
func RWNames() []string {
	var out []string
	for _, e := range RW() {
		out = append(out, e.Name)
	}
	return out
}

// Combining returns the derived comb-* entries (genuinely combining
// executors), in order.
func Combining() []Entry {
	var out []Entry
	for _, e := range entries {
		if e.NewExec != nil {
			out = append(out, e)
		}
	}
	return out
}

// CombiningNames lists the comb-* entry names, in presentation order.
func CombiningNames() []string {
	var out []string
	for _, e := range Combining() {
		out = append(out, e.Name)
	}
	return out
}

// RWCombining returns the derived comb-rw-*/comb-a-rw-* entries
// (genuinely combining reader-writer executors), in order.
func RWCombining() []Entry {
	var out []Entry
	for _, e := range entries {
		if e.NewRWExec != nil {
			out = append(out, e)
		}
	}
	return out
}

// RWCombiningNames lists the comb-rw-*/comb-a-rw-* entry names, in
// presentation order — the read-combining column set of kvbench's
// read-path table.
func RWCombiningNames() []string {
	var out []string
	for _, e := range RWCombining() {
		out = append(out, e.Name)
	}
	return out
}

// Figure2Names lists the locks of the paper's Figures 2-5, in legend
// order.
func Figure2Names() []string {
	return []string{"mcs", "hbo", "hclh", "fc-mcs",
		"c-bo-bo", "c-tkt-tkt", "c-bo-mcs", "c-tkt-mcs", "c-mcs-mcs"}
}

// Figure6Names lists the abortable locks of Figure 6.
func Figure6Names() []string {
	return []string{"a-clh", "a-hbo", "a-c-bo-bo", "a-c-bo-clh"}
}

// TableNames lists the lock columns of Tables 1 and 2, exactly as the
// paper prints them; tools that also want the post-paper locks append
// from ExtensionNames (kvbench does).
func TableNames() []string {
	return []string{"pthread", "fib-bo", "mcs", "hbo", "hbo-tuned", "fc-mcs",
		"c-bo-bo", "c-tkt-tkt", "c-bo-mcs", "c-tkt-mcs", "c-mcs-mcs"}
}

// ExtensionNames lists the blocking locks beyond the paper's
// evaluation set, in presentation order.
func ExtensionNames() []string {
	var out []string
	for _, e := range entries {
		if e.Extension && e.NewMutex != nil {
			out = append(out, e.Name)
		}
	}
	return out
}
