package kvstore

import (
	"fmt"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/registry"
)

// LockSource is the single seam through which a Store receives its
// shards' exclusion domains: a per-shard factory of locks.RWExecutor,
// called once per shard. Each shard posts all its critical sections
// to the executor it gets.
//
// Build one with the four constructors and set it as Config.Locking:
//   - FromMutex: a factory of exclusive locks;
//   - FromRW: a factory of reader-writer locks;
//   - FromExec: a factory of executors (combining or not);
//   - FromRegistry: a lock name, resolved to one of the three above.
type LockSource func() locks.RWExecutor

// FromMutex sources each shard's lock from a factory of exclusive
// locks, one acquisition per critical section. Shards read
// exclusively: the lock's shared face is its exclusive one
// (locks.ExecFromMutex).
func FromMutex(f func() locks.Mutex) LockSource {
	if f == nil {
		panic("kvstore: FromMutex(nil)")
	}
	return func() locks.RWExecutor { return locks.ExecFromMutex(f()) }
}

// FromRW sources each shard's lock from a factory of reader-writer
// locks. Gets take the lock's shared mode, Sets and Deletes its
// exclusive mode.
func FromRW(f func() locks.RWMutex) LockSource {
	if f == nil {
		panic("kvstore: FromRW(nil)")
	}
	return func() locks.RWExecutor { return locks.ExecFromRWMutex(f()) }
}

// FromExec sources each shard's exclusion from a factory of executors
// (registry Entry.ExecFactory shape). A combining executor runs
// same-cluster batches of the shard's sections under one acquisition
// of its underlying lock. Reads go through the executor's ExecShared:
// a combiner over an exclusive lock combines them with the writes, one
// over a reader-writer lock runs them in that lock's shared mode. An
// executor with no shared mode at all runs reads exclusively.
func FromExec[X locks.Executor](f func() X) LockSource {
	if f == nil {
		panic("kvstore: FromExec(nil)")
	}
	return func() locks.RWExecutor {
		x := f()
		if rx, ok := any(x).(locks.RWExecutor); ok {
			return rx
		}
		return exclusiveOnly{x}
	}
}

// exclusiveOnly gives an executor without a shared mode the exclusive
// shared face locks.RWFromMutex gives a mutex.
type exclusiveOnly struct{ locks.Executor }

func (x exclusiveOnly) ExecShared(p *numa.Proc, fn func()) { x.Exec(p, fn) }

// FromRegistry resolves a lock name through the registry (with its
// "did you mean" errors) into the entry's executor factory
// (registry Entry.ExecFactory): combining entries (comb-a-*) keep
// their combiner (the comb-a-rw-* executors read in their operand's
// shared mode), genuine reader-writer entries (rw-*) read in shared
// mode, and plain exclusive entries read exclusively — the same
// sources FromExec, FromRW and FromMutex build.
func FromRegistry(topo *numa.Topology, name string) (LockSource, error) {
	e, err := registry.Find(name)
	if err != nil {
		return nil, err
	}
	if f := e.ExecFactory(topo); f != nil {
		return f, nil
	}
	return nil, fmt.Errorf("kvstore: lock %q has no blocking construction (abortable-only locks cannot guard a shard)", e.Name)
}
