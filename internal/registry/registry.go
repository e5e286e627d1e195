// Package registry turns the paper's lock names into locks, so every
// harness, tool and benchmark selects locks the same way and reports
// them under the paper's nomenclature. The name is the construction:
//
//	name    := wrapper* lock
//	wrapper := comb-a- | gcr- | rw-
//	lock    := base | c-<global>-<local> | a-c-<aglobal>-<alocal>
//
// with base, global, local, aglobal and alocal drawn from the tables
// in this file. Find parses a name against them and composes the lock
// through core.NewCohortLock, core.NewRestricted, locks.NewRWPerCluster
// and locks.NewCombiningAdaptive/NewRWCombiningAdaptive, so a new base
// or slot lock is one table row and inherits every wrapper. Find's
// options (the hand-off limit) configure every cohort lock the name
// spells. Names() is the canonical list the tools and tests enumerate;
// it is data, not the set of valid names.
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
	// NewMutex builds a blocking instance; nil for abortable-only locks
	// and for combining executors (a combining lock cannot expose
	// Lock/Unlock: the critical section is delegated, never held by the
	// caller).
	NewMutex func(topo *numa.Topology) locks.Mutex
	// NewTry builds an abortable instance; nil for non-abortable locks.
	NewTry func(topo *numa.Topology) locks.TryMutex
	// NewRW builds a genuine reader-writer instance (shared mode admits
	// concurrent readers); nil for exclusive-only locks, whose shared
	// closures ExecFactory runs exclusively.
	NewRW func(topo *numa.Topology) locks.RWMutex
	// NewExec builds a genuinely combining executor (delegated batches,
	// one underlying acquisition per batch); nil for plain locks, which
	// still adapt to the executor interface through ExecFactory. Set on
	// comb-a-* names. Over an operand with NewRW the executor's shared
	// closures take the operand's shared mode, one RLock each.
	NewExec func(topo *numa.Topology) locks.RWExecutor
	// opts configure every cohort lock the name spells; Unwrap parses
	// the operand with them again.
	opts []core.Option
}

// bases are the irreducible locks: names the grammar does not take
// apart.
var bases = []Entry{
	{Name: "pthread", NewMutex: func(*numa.Topology) locks.Mutex { return locks.NewPthread() }},
	{Name: "fib-bo", NewMutex: func(*numa.Topology) locks.Mutex { return locks.NewBO() }},
	{Name: "mcs", NewMutex: func(t *numa.Topology) locks.Mutex { return locks.NewMCS(t) }},
	{Name: "hbo", NewMutex: func(*numa.Topology) locks.Mutex { return locks.NewHBO(locks.LBenchHBOConfig()) },
		NewTry: func(*numa.Topology) locks.TryMutex { return locks.NewHBO(locks.LBenchHBOConfig()) }},
	{Name: "hbo-tuned", NewMutex: func(*numa.Topology) locks.Mutex { return locks.NewHBO(locks.AppHBOConfig()) },
		NewTry: func(*numa.Topology) locks.TryMutex { return locks.NewHBO(locks.AppHBOConfig()) }},
	{Name: "hclh", NewMutex: func(t *numa.Topology) locks.Mutex { return locks.NewHCLH(t) }},
	{Name: "fc-mcs", NewMutex: func(t *numa.Topology) locks.Mutex { return locks.NewFCMCS(t) }},
	{Name: "cna", NewMutex: func(t *numa.Topology) locks.Mutex { return locks.NewCNA(t) }},
	{Name: "a-clh", NewTry: func(t *numa.Topology) locks.TryMutex { return core.NewACLH(t) }},
	{Name: "a-hbo", NewTry: func(*numa.Topology) locks.TryMutex { return locks.NewHBO(locks.LBenchHBOConfig()) }},
}

// slot is one lock that can fill a position of the cohort
// transformation (paper §2.1): any lock on top, released on its
// acquirer's behalf, and below any lock that can answer alone?.
type slot[T any] struct {
	name string
	new  func(*numa.Topology) T
}

var (
	globals = []slot[core.Global]{
		{"bo", func(*numa.Topology) core.Global { return core.NewGlobalBO() }},
		{"tkt", func(t *numa.Topology) core.Global { return locks.NewTicket(t) }},
		{"mcs", func(t *numa.Topology) core.Global { return locks.NewMCS(t) }},
	}
	locals = []slot[core.Local]{
		{"bo", func(*numa.Topology) core.Local { return core.Blocking(core.NewABOLocal()) }},
		{"tkt", func(t *numa.Topology) core.Local { return locks.NewTicket(t) }},
		{"mcs", func(t *numa.Topology) core.Local { return locks.NewMCS(t) }},
		{"clh", func(t *numa.Topology) core.Local { return core.Blocking(core.NewACLHLocal(t)) }},
	}
	abortableGlobals = []slot[core.AbortableGlobal]{
		{"bo", func(*numa.Topology) core.AbortableGlobal { return core.NewGlobalBO() }},
	}
	abortableLocals = []slot[core.AbortableLocal]{
		{"bo", func(*numa.Topology) core.AbortableLocal { return core.NewABOLocal() }},
		{"clh", func(t *numa.Topology) core.AbortableLocal { return core.NewACLHLocal(t) }},
	}
)

// The wrappers, each a transformation over any blocking operand.
const (
	// WrapCombA is the load-adaptive combining executor over its
	// operand: delegated same-cluster batches, one acquisition per
	// batch, occupancy-scaled patience and harvest passes. Over an
	// operand that genuinely shares reads (NewRW) it combines the
	// exclusive closures and runs each shared one under one RLock.
	WrapCombA = "comb-a-"
	// WrapGCR is concurrency restriction over its operand.
	WrapGCR = "gcr-"
	// WrapRW is per-cluster reader counters over its operand as the
	// writer lock.
	WrapRW = "rw-"
)

// wrappers lists the prefixes; none is a prefix of another, so at
// most one matches a name.
var wrappers = []string{WrapCombA, WrapGCR, WrapRW}

// canonical is the presentation-order list behind Names: the
// paper's locks, the extensions the exhibits use, and the comb-a- twin
// of every blocking one of them.
var canonical = []string{
	"pthread", "fib-bo", "mcs", "hbo", "hbo-tuned", "hclh", "fc-mcs",
	"c-bo-bo", "c-tkt-tkt", "c-bo-mcs", "c-tkt-mcs", "c-mcs-mcs", "c-bo-clh",
	"cna", "gcr-mcs", "gcr-cna", "gcr-c-bo-mcs",
	"rw-c-bo-mcs", "rw-c-tkt-tkt", "rw-cna", "rw-mcs",
	"a-clh", "a-hbo", "a-c-bo-bo", "a-c-bo-clh",
	"comb-a-pthread", "comb-a-fib-bo", "comb-a-mcs", "comb-a-hbo",
	"comb-a-hbo-tuned", "comb-a-hclh", "comb-a-fc-mcs",
	"comb-a-c-bo-bo", "comb-a-c-tkt-tkt", "comb-a-c-bo-mcs",
	"comb-a-c-tkt-mcs", "comb-a-c-mcs-mcs", "comb-a-c-bo-clh", "comb-a-cna",
	"comb-a-gcr-mcs", "comb-a-gcr-cna", "comb-a-gcr-c-bo-mcs",
	"comb-a-rw-c-bo-mcs", "comb-a-rw-c-tkt-tkt", "comb-a-rw-cna", "comb-a-rw-mcs",
}

// unknownError reports a name — or what is left of one behind valid
// wrappers — that the grammar does not produce, naming the failing
// component. Find adds suggestions to it; a composition that parses
// but cannot be built is an ordinary error.
type unknownError struct{ reason string }

func (u *unknownError) Error() string { return u.reason }

// find parses name and composes its lock: an exact base first, then
// the cohort forms, then the outermost wrapper over the rest. opts
// configure the cohort lock the name ends in; a base takes none.
func find(name string, opts []core.Option) (Entry, error) {
	for _, e := range bases {
		if e.Name == name {
			if len(opts) > 0 {
				return Entry{}, fmt.Errorf("%s takes no options: only a cohort lock has a hand-off limit", name)
			}
			return e, nil
		}
	}
	if e, shaped, err := cohort(name, opts); shaped {
		return e, err
	}
	w, operand, err := split(name, opts)
	if err != nil {
		return Entry{}, err
	}
	return Wrap(w, operand)
}

// split finds name's outermost wrapper and parses its operand with
// opts.
func split(name string, opts []core.Option) (wrapper string, operand Entry, err error) {
	for _, w := range wrappers {
		if rest, ok := strings.CutPrefix(name, w); ok {
			operand, err := find(rest, opts)
			return w, operand, err
		}
	}
	return "", Entry{}, &unknownError{fmt.Sprintf("%q is not a lock", name)}
}

// pick finds name in one slot table; role names the table for the
// error.
func pick[T any](table []slot[T], role, name string) (slot[T], error) {
	var valid []string
	for _, s := range table {
		if s.name == name {
			return s, nil
		}
		valid = append(valid, s.name)
	}
	return slot[T]{}, fmt.Errorf("%q is not %s lock: %s", name, role, strings.Join(valid, ", "))
}

// cohort builds c-<global>-<local> and a-c-<aglobal>-<alocal>
// configured by opts; shaped is false when name is neither form.
func cohort(name string, opts []core.Option) (e Entry, shaped bool, err error) {
	rest, abortable := strings.CutPrefix(name, "a-c-")
	if !abortable {
		rest, shaped = strings.CutPrefix(name, "c-")
	}
	g, l, two := strings.Cut(rest, "-")
	if !(abortable || shaped) || !two || strings.Contains(l, "-") {
		return Entry{}, false, nil
	}
	e = Entry{Name: name, opts: opts}
	if abortable {
		global, gerr := pick(abortableGlobals, "an abortable global", g)
		local, lerr := pick(abortableLocals, "an abortable local", l)
		if err = errors.Join(gerr, lerr); err == nil {
			e.NewTry = func(t *numa.Topology) locks.TryMutex {
				return core.NewAbortableCohortLock(t, global.new(t), func(int) core.AbortableLocal { return local.new(t) }, opts...)
			}
		}
	} else {
		global, gerr := pick(globals, "a global", g)
		local, lerr := pick(locals, "a local", l)
		if err = errors.Join(gerr, lerr); err == nil {
			e.NewMutex = func(t *numa.Topology) locks.Mutex {
				return core.NewCohortLock(t, global.new(t), func(int) core.Local { return local.new(t) }, opts...)
			}
		}
	}
	if err != nil {
		return Entry{}, true, &unknownError{strings.ReplaceAll(err.Error(), "\n", "; ")}
	}
	return e, true, nil
}

// Wrap applies one wrapper (WrapCombA, WrapGCR or WrapRW) to
// operand: the entry Find(wrapper + operand.Name) returns, but built
// over the caller's operand. Together with Unwrap it is the
// interposition seam: a tool that wants to measure underneath a wrapper
// unwraps the entry, decorates the operand's constructors (an
// acquisition counter, say) and wraps it again, without knowing which
// construction the name spells.
func Wrap(wrapper string, operand Entry) (Entry, error) {
	x := operand
	if x.NewMutex == nil {
		what := "abortable-only"
		if x.NewExec != nil {
			what = "a combining executor"
		}
		return Entry{}, fmt.Errorf("%s is %s, %s needs a blocking lock", x.Name, what, wrapper)
	}
	e := Entry{Name: wrapper + x.Name, opts: x.opts}
	switch wrapper {
	case WrapGCR:
		e.NewMutex = func(t *numa.Topology) locks.Mutex { return core.NewRestricted(t, x.NewMutex(t), 0) }
	case WrapRW:
		e.NewMutex = func(t *numa.Topology) locks.Mutex { return locks.NewRWPerCluster(t, x.NewMutex(t)) }
		e.NewRW = func(t *numa.Topology) locks.RWMutex { return locks.NewRWPerCluster(t, x.NewMutex(t)) }
	case WrapCombA:
		if x.NewRW == nil {
			e.NewExec = func(t *numa.Topology) locks.RWExecutor { return locks.NewCombiningAdaptive(t, x.NewMutex(t)) }
			break
		}
		e.NewExec = func(t *numa.Topology) locks.RWExecutor { return locks.NewRWCombiningAdaptive(t, x.NewRW(t)) }
	default:
		return Entry{}, fmt.Errorf("%q is not a wrapper: %s", wrapper, strings.Join(wrappers, ", "))
	}
	return e, nil
}

// Unwrap splits a composed entry at its outermost wrapper, by name and
// with the options e was found with, so the operand keeps its hand-off
// limit: Wrap(wrapper, operand) rebuilds e. ok is false for a base or
// cohort lock, which has nothing to unwrap.
func (e Entry) Unwrap() (wrapper string, operand Entry, ok bool) {
	wrapper, operand, err := split(e.Name, e.opts)
	return wrapper, operand, err == nil
}

// ExecFactory returns a factory building independent executors of this
// lock for topo (exclusive plus shared closures), or nil if the entry
// cannot lock at all. Every call of the factory constructs a fresh,
// unshared executor, so a sharded store builds one per shard from a
// single name, and the name decides the read path: comb-a-* entries
// yield genuinely combining executors (NewExec), whose shared closures
// take a comb-a-rw-* operand's shared mode; rw-* entries (NewRW) run
// shared closures in shared mode, so readers coexist; the rest adapt
// through locks.ExecFromMutex, one exclusive acquisition per closure,
// shared or not.
func (e Entry) ExecFactory(topo *numa.Topology) func() locks.RWExecutor {
	switch {
	case e.NewExec != nil:
		return func() locks.RWExecutor { return e.NewExec(topo) }
	case e.NewRW != nil:
		return func() locks.RWExecutor { return locks.ExecFromRWMutex(e.NewRW(topo)) }
	case e.NewMutex != nil:
		return func() locks.RWExecutor { return locks.ExecFromMutex(e.NewMutex(topo)) }
	}
	return nil
}

// normalize maps user-supplied spellings onto registry names: names
// are lower-case, but CLI users type C-BO-MCS as the paper prints it.
func normalize(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// Find builds the entry a name spells, case-insensitively; it is the
// one way to build a lock. opts (core.WithHandoffLimit) configure
// every cohort lock in the name, under any wrappers; a name without
// one rejects them. A name the grammar does not produce reports the
// failing component, "did you mean" suggestions from the canonical
// list (close or substring matches) and the grammar, so a typo never
// dead-ends; a name that parses but cannot be built reports which
// operand the wrapper cannot take and why.
func Find(name string, opts ...core.Option) (Entry, error) {
	e, err := find(normalize(name), opts)
	if err == nil {
		return e, nil
	}
	var u *unknownError
	if !errors.As(err, &u) {
		return Entry{}, fmt.Errorf("lock %q: %w", name, err)
	}
	var msg strings.Builder
	fmt.Fprintf(&msg, "lock %q: %v", name, u)
	if s := suggest(normalize(name)); len(s) > 0 {
		fmt.Fprintf(&msg, " — did you mean %s?", strings.Join(s, ", "))
	}
	fmt.Fprintf(&msg, " (valid locks: %s)", grammar())
	return Entry{}, errors.New(msg.String())
}

// grammar states the valid names in one line, from the tables.
func grammar() string {
	var base []string
	for _, e := range bases {
		base = append(base, e.Name)
	}
	return fmt.Sprintf("any of %s in front of one of %s, c-{%s}-{%s}, a-c-{%s}-{%s}",
		strings.Join(wrappers, ", "), strings.Join(base, ", "),
		slotNames(globals), slotNames(locals), slotNames(abortableGlobals), slotNames(abortableLocals))
}

func slotNames[T any](table []slot[T]) string {
	var out []string
	for _, s := range table {
		out = append(out, s.name)
	}
	return strings.Join(out, ",")
}

// suggest returns canonical names within edit distance 2 of name, or
// failing that, ones containing it.
func suggest(name string) []string {
	var near, sub []string
	for _, c := range canonical {
		if editDistance(name, c) <= 2 {
			near = append(near, c)
		} else if name != "" && strings.Contains(c, name) {
			sub = append(sub, c)
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

// MustLookup is Find that panics on an invalid name; tools use it
// after validating flags.
func MustLookup(name string) Entry {
	e, err := Find(name)
	if err != nil {
		panic("registry: " + err.Error())
	}
	return e
}

// Names lists the canonical lock names, in presentation order.
func Names() []string {
	return append([]string(nil), canonical...)
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
// them by name (kvbench does).
func TableNames() []string {
	return []string{"pthread", "fib-bo", "mcs", "hbo", "hbo-tuned", "fc-mcs",
		"c-bo-bo", "c-tkt-tkt", "c-bo-mcs", "c-tkt-mcs", "c-mcs-mcs"}
}
