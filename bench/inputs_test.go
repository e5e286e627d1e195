package main

import "testing"

// The same seed must give the same inputs, whatever ran before.
func TestSeedGivesIdenticalOpStream(t *testing.T) {
	draw := func(seed uint64) (calls []storeCall, ops []wireOp, thinks []int) {
		w := stream(seed, tagStoreWrite, 1, 7, 0)
		p := stream(seed, tagWirePipelined, 7, 0)
		l := stream(seed, tagLock, 3, 7, 1)
		for i := 0; i < 1000; i++ {
			var c storeCall
			nextWriteCall(&w, writeKeys, &c)
			calls = append(calls, c)
			ops = append(ops, nextWireOp(&p, residentKeys, 5))
			thinks = append(thinks, l.intn(maxThink+1))
		}
		return
	}
	c1, o1, t1 := draw(42)
	c2, o2, t2 := draw(42)
	c3, _, _ := draw(43)
	same := 0
	for i := range c1 {
		if c1[i] != c2[i] || o1[i] != o2[i] || t1[i] != t2[i] {
			t.Fatalf("draw %d differs between two runs of seed 42", i)
		}
		if c1[i] == c3[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d of %d calls are the same under seeds 42 and 43", same, len(c1))
	}
}

func TestOpMixAndRanges(t *testing.T) {
	r := stream(1, tagStoreWrite)
	kinds := map[int]int{}
	var c storeCall
	const n = 20000
	for i := 0; i < n; i++ {
		nextWriteCall(&r, writeKeys, &c)
		kinds[c.kind]++
		for j := range c.ids {
			if c.ids[j] < 0 || c.ids[j] >= writeKeys || c.lens[j] < minValueLen || c.lens[j] > maxValueLen {
				t.Fatalf("key %d of length %d out of range", c.ids[j], c.lens[j])
			}
		}
	}
	for kind, want := range map[int]float64{callMSet: 0.7, callMGet: 0.2, callMDelete: 0.1} {
		if got := float64(kinds[kind]) / n; got < want-0.02 || got > want+0.02 {
			t.Errorf("kind %d drawn %.3f of the time, want %.1f", kind, got, want)
		}
	}
}

func TestValuesAreAFunctionOfTheKey(t *testing.T) {
	buf := make([]byte, maxValueLen)
	v := fillValue(buf, 0x1234, 100)
	if !checkValue(v, 0x1234, 100) || !checkValue(v, 0x1234, -1) {
		t.Error("a key's own value does not verify")
	}
	if checkValue(v, 0x1235, 100) {
		t.Error("another key's value verifies")
	}
	if checkValue(v, 0x1234, fixedValueLen) {
		t.Error("a wrong length verifies")
	}
	v[50] ^= 1
	if checkValue(v, 0x1234, 100) {
		t.Error("a flipped bit verifies")
	}
	ks := newKeyspace(3)
	if string(ks.names[2]) != "k0000002" || ks.hashes[2] != hashKey("k0000002") {
		t.Errorf("key 2 is %q / %x", ks.names[2], ks.hashes[2])
	}
}
