package core

import (
	"testing"

	"repro/internal/locks"
	"repro/internal/locktest"
	"repro/internal/numa"
)

func TestRestrictedDefaultLimit(t *testing.T) {
	topo := numa.New(4, 16)
	l := NewRestricted(topo, locks.NewMCS(topo), 0)
	if l.limit < 1 {
		t.Fatalf("default admission bound %d, want >= 1", l.limit)
	}
	if want := DefaultActivePerCluster(topo); l.limit != int64(want) {
		t.Fatalf("default admission bound %d, want %d", l.limit, want)
	}
	locktest.Check(t, topo, locks.ExecFromMutex(l), 0, 16, 200)
}
