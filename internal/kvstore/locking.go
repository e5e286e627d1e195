package kvstore

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

// LockSource is the single seam through which a Store receives its
// shards' exclusion domains: a source either supplies a per-shard
// executor factory (the delegated-execution seam) or a per-shard
// reader-writer lock factory (direct locking; exclusive locks are
// adapted through locks.RWFromMutex).
//
// Build one with FromMutex, FromRW, FromExec, FromLock, FromRWLock or
// FromRegistry and set it as Config.Locking. The interface is sealed:
// the two resolution targets (executor vs lock) are an internal
// contract of the shard, so external implementations are not
// meaningful.
type LockSource interface {
	// builders resolves the source into per-shard factories; exactly
	// one of the two returns is non-nil.
	builders() (newExec func() locks.Executor, newLock func() locks.RWMutex)
	// multiShard reports whether the source can back more than one
	// shard (i.e. it is factory-backed, not a single pre-built
	// instance).
	multiShard() bool
	// describe names the source for error messages.
	describe() string
}

// FromMutex sources each shard's lock from a factory of exclusive
// locks (registry Entry.MutexFactory shape). Shards keep the
// exclusive read path: the factory's locks are adapted through
// locks.RWFromMutex, which keeps the pre-RW Get path byte for byte.
func FromMutex(f func() locks.Mutex) LockSource {
	if f == nil {
		panic("kvstore: FromMutex(nil)")
	}
	return mutexSource{f}
}

// FromRW sources each shard's lock from a factory of reader-writer
// locks (registry Entry.RWFactory shape). When the factory's locks
// genuinely share reads (locks.SharesReads), Gets run in shared mode
// with the TouchEvery LRU sampling policy; Sets and Deletes always
// take exclusive mode.
func FromRW(f func() locks.RWMutex) LockSource {
	if f == nil {
		panic("kvstore: FromRW(nil)")
	}
	return rwSource{f}
}

// FromExec sources each shard's exclusion from a factory of combining
// executors (registry Entry.ExecFactory shape): every shard operation
// — Gets included — is posted to the executor, whose combiner runs
// same-cluster batches under one acquisition of its underlying lock.
func FromExec(f func() locks.Executor) LockSource {
	if f == nil {
		panic("kvstore: FromExec(nil)")
	}
	return execSource{f}
}

// FromLock sources a single-shard store's lock from one pre-built
// exclusive instance — the paper's interposition point. Multi-shard
// stores need a factory-backed source.
func FromLock(m locks.Mutex) LockSource {
	if m == nil {
		panic("kvstore: FromLock(nil)")
	}
	return singleSource{newLock: func() locks.RWMutex { return locks.RWFromMutex(m) }, name: "FromLock"}
}

// FromRWLock sources a single-shard store's lock from one pre-built
// reader-writer instance.
func FromRWLock(l locks.RWMutex) LockSource {
	if l == nil {
		panic("kvstore: FromRWLock(nil)")
	}
	return singleSource{newLock: func() locks.RWMutex { return l }, name: "FromRWLock"}
}

// FromRegistry resolves a lock name through the registry (with its
// "did you mean" errors) into the source a tool would build for that
// entry: combining entries (comb-*, comb-a-*) become executor
// sources (the comb-rw-* twins' executors carry a genuinely shared
// read mode, which the shard detects and routes its read paths
// through — see Shard.rwexec), genuine reader-writer entries (rw-*)
// become RW sources, and plain exclusive entries become mutex sources
// — the same precedence kvbench applies when wiring a store by name.
func FromRegistry(topo *numa.Topology, name string) (LockSource, error) {
	e, err := registry.Find(name)
	if err != nil {
		return nil, err
	}
	switch {
	case e.NewExec != nil:
		return FromExec(e.ExecFactory(topo)), nil
	case e.NewRW != nil:
		return FromRW(e.RWFactory(topo)), nil
	case e.NewMutex != nil:
		return FromMutex(e.MutexFactory(topo)), nil
	}
	return nil, fmt.Errorf("kvstore: lock %q has no blocking construction (abortable-only locks cannot guard a shard)", e.Name)
}

type mutexSource struct{ f func() locks.Mutex }

func (s mutexSource) builders() (func() locks.Executor, func() locks.RWMutex) {
	return nil, func() locks.RWMutex { return locks.RWFromMutex(s.f()) }
}
func (s mutexSource) multiShard() bool { return true }
func (s mutexSource) describe() string { return "FromMutex" }

type rwSource struct{ f func() locks.RWMutex }

func (s rwSource) builders() (func() locks.Executor, func() locks.RWMutex) {
	return nil, s.f
}
func (s rwSource) multiShard() bool { return true }
func (s rwSource) describe() string { return "FromRW" }

type execSource struct{ f func() locks.Executor }

func (s execSource) builders() (func() locks.Executor, func() locks.RWMutex) {
	return s.f, nil
}
func (s execSource) multiShard() bool { return true }
func (s execSource) describe() string { return "FromExec" }

type singleSource struct {
	newLock func() locks.RWMutex
	name    string
}

func (s singleSource) builders() (func() locks.Executor, func() locks.RWMutex) {
	return nil, s.newLock
}
func (s singleSource) multiShard() bool { return false }
func (s singleSource) describe() string { return s.name }
