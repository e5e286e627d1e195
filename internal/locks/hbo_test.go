package locks

import (
	"testing"

	"repro/internal/numa"
)

func TestHBOTracksOwnerCluster(t *testing.T) {
	topo := numa.New(4, 64)
	l := NewHBO(LBenchHBOConfig())
	if w := l.word.Load(); w != -1 {
		t.Fatalf("fresh HBO word = %d, want -1 (free)", w)
	}
	p := topo.Proc(2) // cluster 2
	l.Lock(p)
	if w := l.word.Load(); w != 2 {
		t.Fatalf("HBO word = %d while cluster 2 holds it, want 2", w)
	}
	l.Unlock(p)
	if w := l.word.Load(); w != -1 {
		t.Fatalf("HBO word = %d after unlock, want -1 (free)", w)
	}
}
