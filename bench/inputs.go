package main

import (
	"encoding/binary"
	"fmt"
)

// rng is splitmix64, the benchmark's only source of randomness: every
// key id, op kind, think length and value length is drawn from a
// stream derived from -seed, so the same seed gives the same inputs.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stream derives an independent generator from the seed and a path of
// identifiers (workload, cell, window, worker), so no two workers ever
// share a sequence and a window's inputs do not depend on how many
// calls earlier windows managed to issue.
func stream(seed uint64, path ...uint64) rng {
	s := mix64(seed + 0x9e3779b97f4a7c15)
	for _, p := range path {
		s = mix64(s ^ mix64(p+0x9e3779b97f4a7c15))
	}
	return rng{s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a value in [0, n) by multiply-shift (n < 2^32).
func (r *rng) intn(n int) int {
	return int((r.next() >> 32) * uint64(n) >> 32)
}

// Stream path tags, one per consumer.
const (
	tagLock uint64 = iota + 1
	tagStoreRead
	tagStoreWrite
	tagWirePipelined
	tagWireRR
	tagLayer
)

// Value shape. A value is a function of its key alone: the 8-byte
// big-endian key id, then the pattern byte id&0xff up to the stated
// length. Every get is therefore verified byte for byte with no ledger.
const (
	fixedValueLen = 128
	minValueLen   = 64
	maxValueLen   = 512
)

// fillValue writes key id's value of length n into dst[:n].
func fillValue(dst []byte, id uint64, n int) []byte {
	dst = dst[:n]
	binary.BigEndian.PutUint64(dst, id)
	pat := byte(id)
	for i := 8; i < n; i++ {
		dst[i] = pat
	}
	return dst
}

// checkValue reports whether b is key id's value. wantLen pins the
// length; wantLen < 0 accepts any length a writer may have chosen.
func checkValue(b []byte, id uint64, wantLen int) bool {
	if wantLen >= 0 && len(b) != wantLen {
		return false
	}
	if len(b) < minValueLen || len(b) > maxValueLen {
		return false
	}
	if binary.BigEndian.Uint64(b) != id {
		return false
	}
	pat := byte(id)
	for _, c := range b[8:] {
		if c != pat {
			return false
		}
	}
	return true
}

// keyspace is the key universe shared by every store and wire
// workload: wire names k0000000.. and their store hashes.
type keyspace struct {
	names  [][]byte
	hashes []uint64
}

func newKeyspace(n int) *keyspace {
	ks := &keyspace{names: make([][]byte, n), hashes: make([]uint64, n)}
	for i := range ks.names {
		name := fmt.Sprintf("k%07d", i)
		ks.names[i] = []byte(name)
		ks.hashes[i] = hashKey(name)
	}
	return ks
}

// keysPerCall sizes one timed store call so that the two clock reads
// around it are noise, not signal.
const keysPerCall = 16

// Store call kinds.
const (
	callMGet = iota
	callGets // keysPerCall single-key Gets
	callMSet
	callMDelete
)

// storeCall is one generated call: a kind, its key ids and (for
// writes) the value length of each key.
type storeCall struct {
	kind int
	ids  [keysPerCall]int
	lens [keysPerCall]int
}

// nextReadCall draws a store-read call: MGet three times in four,
// single Gets otherwise, over keys uniform in [0, keys).
func nextReadCall(r *rng, keys int, c *storeCall) {
	c.kind = callMGet
	if r.intn(4) == 0 {
		c.kind = callGets
	}
	for i := range c.ids {
		c.ids[i] = r.intn(keys)
	}
}

// nextWriteCall draws a store-write call: 70 % MSet, 20 % MGet, 10 %
// MDelete, with a fresh value length per key so overwrites outgrow and
// undershoot the buffers they replace.
func nextWriteCall(r *rng, keys int, c *storeCall) {
	switch k := r.intn(10); {
	case k < 7:
		c.kind = callMSet
	case k < 9:
		c.kind = callMGet
	default:
		c.kind = callMDelete
	}
	for i := range c.ids {
		c.ids[i] = r.intn(keys)
		c.lens[i] = minValueLen + r.intn(maxValueLen-minValueLen+1)
	}
}

// wireOp is one generated wire request.
type wireOp struct {
	id  int
	set bool
}

// nextWireOp draws a request that is a set setPct times in a hundred.
func nextWireOp(r *rng, keys, setPct int) wireOp {
	return wireOp{set: r.intn(100) < setPct, id: r.intn(keys)}
}
