package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/numa"
)

// fuzzKeys are the key names a fuzzed stream draws from: few enough
// that gets hit what earlier sets stored, of differing lengths so a
// VALUE line that echoed a neighbour's name would show. The last two
// collide in HashKey (collidingA and collidingB).
var fuzzKeys = [10]string{"a", "bb", "key:2", "k3", "fourth-key", "5", "six:66", "k7", collidingA, collidingB}

// fuzzOp is one request of a fuzzed stream. keys index fuzzKeys; a
// get names one to six of them, a set or delete exactly one.
type fuzzOp struct {
	kind    Kind
	keys    []byte
	cas     bool // get: gets
	noReply bool // set, delete
	flags   byte // set
	value   []byte
}

// encodeFuzzStream is the inverse of decodeFuzzStream, for the seeds.
// Each op is a header byte h (verb h%3; for a get (h/3)%6 is the key
// count less one and (h/18)%2 the cas bit, for a set or delete (h/3)%2
// is noreply), then its key bytes, and for a set the flags byte, the
// value length and the value.
func encodeFuzzStream(ops ...fuzzOp) []byte {
	var b []byte
	bit := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	for _, op := range ops {
		switch op.kind {
		case KindGet:
			b = append(b, 3*(byte(len(op.keys)-1)+6*bit(op.cas)))
			b = append(b, op.keys...)
		case KindSet:
			b = append(b, 1+3*bit(op.noReply), op.keys[0], op.flags, byte(len(op.value)))
			b = append(b, op.value...)
		case KindDelete:
			b = append(b, 2+3*bit(op.noReply), op.keys[0])
		}
	}
	return b
}

// decodeFuzzStream reads a stream of at most 100 ops out of data; a
// truncated op reads zeros for its missing bytes.
func decodeFuzzStream(data []byte) (ops []fuzzOp) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return v
	}
	key := func() byte { return next() % byte(len(fuzzKeys)) }
	for len(data) > 0 && len(ops) < 100 {
		h := next()
		op := fuzzOp{kind: [3]Kind{KindGet, KindSet, KindDelete}[h%3]}
		switch op.kind {
		case KindGet:
			for range 1 + int(h/3)%6 {
				op.keys = append(op.keys, key())
			}
			op.cas = (h/18)%2 == 1
		case KindSet:
			op.noReply = (h/3)%2 == 1
			op.keys = []byte{key()}
			op.flags = next()
			for range int(next()) % 41 {
				op.value = append(op.value, next())
			}
		case KindDelete:
			op.noReply = (h/3)%2 == 1
			op.keys = []byte{key()}
		}
		ops = append(ops, op)
	}
	return ops
}

// fuzzSlot is what the store holds under one HashKey: the name it was
// set under and the stored block.
type fuzzSlot struct {
	name  string
	block []byte
}

// modelAnswers renders ops as one pipelined request stream and the
// exact bytes a correct server answers to it, applying them to model
// in order. The model mirrors the store: one slot per hash, a get hits
// only when the slot's name is the requested one, a set overwrites the
// slot, and a delete removes it by hash alone.
func modelAnswers(ops []fuzzOp, model map[uint64]fuzzSlot) (stream, want []byte) {
	var s, w bytes.Buffer
	noreply := func(v bool) string {
		if v {
			return " noreply"
		}
		return ""
	}
	for _, op := range ops {
		key := fuzzKeys[op.keys[0]]
		switch op.kind {
		case KindGet:
			s.WriteString(map[bool]string{false: "get", true: "gets"}[op.cas])
			for _, k := range op.keys {
				s.WriteString(" " + fuzzKeys[k])
			}
			s.WriteString("\r\n")
		case KindSet:
			fmt.Fprintf(&s, "set %s %d 0 %d%s\r\n%s\r\n", key, op.flags, len(op.value), noreply(op.noReply), op.value)
		case KindDelete:
			fmt.Fprintf(&s, "delete %s%s\r\n", key, noreply(op.noReply))
		}
		switch op.kind {
		case KindGet:
			for _, k := range op.keys {
				slot, ok := model[HashKey(fuzzKeys[k])]
				if !ok || slot.name != fuzzKeys[k] {
					continue
				}
				flags, val := decodeValue(slot.block)
				fmt.Fprintf(&w, "VALUE %s %d %d", fuzzKeys[k], flags, len(val))
				if op.cas {
					fmt.Fprintf(&w, " %d", PseudoCAS(val))
				}
				fmt.Fprintf(&w, "\r\n%s\r\n", val)
			}
			w.WriteString("END\r\n")
		case KindSet:
			model[HashKey(key)] = fuzzSlot{key, encodeValue(nil, uint32(op.flags), op.value)}
			if !op.noReply {
				w.WriteString("STORED\r\n")
			}
		case KindDelete:
			_, ok := model[HashKey(key)]
			delete(model, HashKey(key))
			if !op.noReply {
				w.WriteString(map[bool]string{false: "NOT_FOUND\r\n", true: "DELETED\r\n"}[ok])
			}
		}
	}
	return s.Bytes(), w.Bytes()
}

// FuzzServeAgainstModel is the wire twin of kvstore's
// FuzzStoreAgainstModel: a fuzzed pipelined stream of get/gets, set
// and delete requests over ten key names, two of which collide in
// HashKey, is served on one in-memory connection, over a one-shard
// store whose MaxBatch of 3 makes runs flush early and get runs fetch
// in several chunks, and the response bytes must equal the model's, as
// must the store afterwards. `go test` runs the seeds;
// `go test -fuzz=FuzzServeAgainstModel` explores.
func FuzzServeAgainstModel(f *testing.F) {
	get := func(cas bool, keys ...byte) fuzzOp { return fuzzOp{kind: KindGet, keys: keys, cas: cas} }
	set := func(key byte, noReply bool, flags byte, value string) fuzzOp {
		return fuzzOp{kind: KindSet, keys: []byte{key}, noReply: noReply, flags: flags, value: []byte(value)}
	}
	del := func(key byte, noReply bool) fuzzOp {
		return fuzzOp{kind: KindDelete, keys: []byte{key}, noReply: noReply}
	}
	const a, b = 8, 9 // the colliding pair
	seeds := [][]fuzzOp{
		// A get run whose requests straddle a chunk boundary, with
		// misses and gets.
		{
			set(0, false, 7, "hello"), set(1, false, 0, ""), set(4, false, 255, "a longer value\r\nwith a CRLF"),
			get(false, 0, 2), get(true, 1, 0, 3), get(false, 4), get(true, 5, 4, 4, 0, 1, 6), get(false, 3),
		},
		// A delete run whose first and last requests are noreply.
		{
			set(0, false, 1, "x"), set(2, true, 2, "yy"), set(3, false, 3, "zzz"),
			del(0, true), del(1, false), del(2, false), del(2, false), del(3, true),
			get(false, 0, 1, 2, 3),
		},
		// A set run with noreply mixed in.
		{
			set(0, true, 1, "one"), set(1, false, 2, "two"), set(0, false, 3, "three"), set(5, true, 4, "four"),
			set(6, false, 5, ""), set(7, true, 6, "six"), get(true, 0, 1, 5, 6, 7),
		},
		// The colliding pair: neither name ever reads the other's
		// bytes, and a delete of one drops the other's item.
		{
			set(a, false, 1, "secret"), get(false, b), get(false, a), set(b, false, 2, "other"), get(false, a),
			get(true, b, a, b), del(a, false), get(false, b),
		},
	}
	for _, ops := range seeds {
		f.Add(encodeFuzzStream(ops...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzStream(data)
		model := make(map[uint64]fuzzSlot)
		stream, want := modelAnswers(ops, model)

		topo := numa.New(1, 2)
		store := newTestStore(topo, 1, 3)
		srv, err := New(Config{Topo: topo, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		client := servePipe(t, srv, topo.Proc(0), func(c net.Conn) net.Conn { return c })
		client.SetDeadline(time.Now().Add(10 * time.Second))
		wrote := make(chan error, 1)
		go func() {
			_, err := client.Write(append(stream, "quit\r\n"...))
			wrote <- err
		}()
		got, err := io.ReadAll(client)
		if err != nil {
			t.Fatalf("reading the answers: %v", err)
		}
		if err := <-wrote; err != nil {
			t.Fatalf("writing the stream: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stream\n%q\nanswered\n%q\nwant\n%q", stream, got, want)
		}

		dst := make([]byte, 4+64)
		for _, key := range fuzzKeys {
			n, ok := store.Get(topo.Proc(1), HashKey(key), dst)
			if slot, inModel := model[HashKey(key)]; ok != inModel || ok && !bytes.Equal(dst[:n], slot.block) {
				t.Fatalf("store holds %q under %s (present %v), model %q (present %v)", dst[:n], key, ok, slot.block, inModel)
			}
		}
	})
}
