package kvstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/locks"
	"repro/internal/numa"
)

// groupByShard is the routing the batch APIs used before Store.route:
// one appended index slice per shard. Kept as the oracle route is
// checked against.
func groupByShard(s *Store, keys []uint64) [][]int {
	groups := make([][]int, len(s.shards))
	for i, k := range keys {
		si := s.shardIndex(k)
		groups[si] = append(groups[si], i)
	}
	return groups
}

// TestRouteIsStablePartition checks, over random key batches, that
// route puts every index in exactly one shard group, keeps caller
// order within a group, and agrees with the append-per-shard oracle —
// for every shard count, from requesters on every cluster.
func TestRouteIsStablePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shards := range []int{1, 2, 7, 8} {
		t.Run(fmt.Sprintf("hashmod/%d", shards), func(t *testing.T) {
			topo := numa.New(2, 4)
			s := New(Config{
				Topo:    topo,
				Locking: FromMutex(func() locks.Mutex { return locks.NewMCS(topo) }),
				Shards:  shards,
			})
			for round := 0; round < 200; round++ {
				// Sizes shrink as well as grow, so a reused scratch
				// longer than the batch is exercised; a small key
				// space makes duplicates common.
				keys := make([]uint64, rng.Intn(70))
				for i := range keys {
					keys[i] = uint64(rng.Intn(40))
				}
				p := topo.Proc(rng.Intn(topo.MaxProcs()))
				order, start := s.route(p, keys)
				if len(order) != len(keys) || len(start) != shards+1 || start[0] != 0 || start[shards] != len(keys) {
					t.Fatalf("route of %d keys: len(order)=%d start=%v", len(keys), len(order), start)
				}
				want := groupByShard(s, keys)
				seen := make([]bool, len(keys))
				for si := 0; si < shards; si++ {
					group := order[start[si]:start[si+1]]
					if !slices.Equal(group, want[si]) {
						t.Fatalf("shard %d: route %v, oracle %v", si, group, want[si])
					}
					if !slices.IsSorted(group) {
						t.Fatalf("shard %d: group %v not in caller order", si, group)
					}
					for _, i := range group {
						if seen[i] {
							t.Fatalf("index %d routed twice", i)
						}
						seen[i] = true
						if got := s.shardIndex(keys[i]); got != si {
							t.Fatalf("index %d in group %d, routes to %d", i, si, got)
						}
					}
				}
				if i := slices.Index(seen, false); i >= 0 {
					t.Fatalf("index %d never routed", i)
				}
			}
		})
	}
}

// TestRouteScratchGrowsGeometrically: a caller whose batches creep
// upward one key at a time must not reallocate its routing scratch on
// every new high-water mark.
func TestRouteScratchGrowsGeometrically(t *testing.T) {
	topo := numa.New(2, 2)
	s := New(Config{
		Topo:    topo,
		Locking: FromMutex(func() locks.Mutex { return locks.NewMCS(topo) }),
		Shards:  4,
	})
	p := topo.Proc(0)
	keys := make([]uint64, 1024)
	grows, last := 0, 0
	for n := 1; n <= len(keys); n++ {
		s.route(p, keys[:n])
		if c := cap(s.routes[p.ID()].order); c != last {
			grows, last = grows+1, c
		}
	}
	if grows > 11 { // 1, 2, 4, ... 1024
		t.Fatalf("scratch reallocated %d times over batches of 1..%d keys", grows, len(keys))
	}
}
