package server

import (
	"bufio"
	"io"
	"strings"
	"testing"
)

func newTestParser(input string) *Parser {
	return NewParser(bufio.NewReaderSize(strings.NewReader(input), 1024), Limits{MaxValueBytes: 64})
}

// TestParseWellFormed pins the accepted grammar.
func TestParseWellFormed(t *testing.T) {
	p := newTestParser("get foo\r\n" +
		"gets a b c\r\n" +
		"set k 7 0 5\r\nhello\r\n" +
		"set k 7 0 5 noreply\r\nhello\r\n" +
		"set k 0 -1 0\r\n\r\n" +
		"delete k\r\n" +
		"delete k noreply\r\n" +
		"delete k 0 noreply\r\n" +
		"version\r\n" +
		"stats\r\n" +
		"stats items\r\n" +
		"quit\r\n")
	var r Request
	expect := func(step string, check func() bool) {
		t.Helper()
		if err := p.ParseRequest(&r); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !check() {
			t.Fatalf("%s: parsed %+v", step, r)
		}
	}
	expect("get", func() bool { return r.Kind == KindGet && !r.CAS && len(r.Keys) == 1 && string(r.Keys[0]) == "foo" })
	expect("gets", func() bool { return r.Kind == KindGet && r.CAS && len(r.Keys) == 3 && string(r.Keys[2]) == "c" })
	expect("set", func() bool {
		return r.Kind == KindSet && r.Flags == 7 && !r.NoReply && string(r.Value) == "hello" && string(r.Keys[0]) == "k"
	})
	expect("set noreply", func() bool { return r.Kind == KindSet && r.NoReply })
	expect("set empty", func() bool { return r.Kind == KindSet && len(r.Value) == 0 })
	expect("delete", func() bool { return r.Kind == KindDelete && !r.NoReply && string(r.Keys[0]) == "k" })
	expect("delete noreply", func() bool { return r.Kind == KindDelete && r.NoReply })
	expect("delete historical", func() bool { return r.Kind == KindDelete && r.NoReply })
	expect("version", func() bool { return r.Kind == KindVersion })
	expect("stats", func() bool { return r.Kind == KindStats })
	expect("stats with ignored args", func() bool { return r.Kind == KindStats })
	expect("quit", func() bool { return r.Kind == KindQuit })
	if err := p.ParseRequest(&r); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

// TestParseMalformed is the table of protocol violations: each input
// must answer the documented error line, must not panic, and must
// leave the stream in frame sync unless the error demands a close.
func TestParseMalformed(t *testing.T) {
	cases := []struct {
		name  string
		input string
		line  string // expected ProtoError line
		close bool   // expected ProtoError.Close
	}{
		{"empty line", "\r\n", "ERROR", false},
		{"unknown command", "frobnicate x\r\n", "ERROR", false},
		{"get without keys", "get\r\n", "CLIENT_ERROR bad command line format", false},
		{"get key too long", "get " + strings.Repeat("k", 251) + "\r\n", "CLIENT_ERROR bad command line format", false},
		{"get key control char", "get a\x01b\r\n", "CLIENT_ERROR bad command line format", false},
		{"set missing fields", "set k 0 0\r\n", "CLIENT_ERROR bad command line format", false},
		{"set extra fields", "set k 0 0 1 noreply extra\r\nx\r\n", "CLIENT_ERROR bad command line format", false},
		{"set bad flags", "set k x 0 1\r\nx\r\n", "CLIENT_ERROR bad command line format", false},
		{"set bad exptime", "set k 0 y 1\r\nx\r\n", "CLIENT_ERROR bad command line format", false},
		{"set bad bytes", "set k 0 0 -1\r\nx\r\n", "CLIENT_ERROR bad command line format", true},
		{"set bad noreply magic", "set k 0 0 1 norply\r\nx\r\n", "CLIENT_ERROR bad command line format", false},
		{"delete bad noreply magic", "delete k norply\r\n", "CLIENT_ERROR bad command line format", false},
		{"delete without key", "delete\r\n", "CLIENT_ERROR bad command line format", false},
		{"oversized value", "set k 0 0 65\r\n" + strings.Repeat("v", 65) + "\r\n", "SERVER_ERROR object too large for cache", false},
		{"absurd value size", "set k 0 0 99999999999\r\n", "SERVER_ERROR object too large for cache", true},
		{"bad data chunk", "set k 0 0 5\r\nhelloXX", "CLIENT_ERROR bad data chunk", true},
		{"line too long", "get " + strings.Repeat("k", 2000) + "\r\n", "CLIENT_ERROR line too long", true},
		{"cas unimplemented", "cas k 0 0 5 123\r\nhello\r\n", "SERVER_ERROR command not implemented", false},
		{"add unimplemented", "add k 0 0 5\r\nhello\r\n", "SERVER_ERROR command not implemented", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestParser(tc.input + "version\r\n")
			var r Request
			err := p.ParseRequest(&r)
			pe, ok := err.(*ProtoError)
			if !ok {
				t.Fatalf("want *ProtoError, got %v", err)
			}
			if pe.Line != tc.line {
				t.Fatalf("error line = %q, want %q", pe.Line, tc.line)
			}
			if pe.Close != tc.close {
				t.Fatalf("Close = %v, want %v", pe.Close, tc.close)
			}
			if !tc.close {
				// Frame sync: the appended version request must parse.
				if err := p.ParseRequest(&r); err != nil || r.Kind != KindVersion {
					t.Fatalf("stream out of sync after error: %v %+v", err, r)
				}
			}
		})
	}
}

// TestParseTornFrames pins transport-error behavior for frames cut
// mid-request: a clean boundary reports io.EOF, a torn one reports
// ErrUnexpectedEOF — never a panic, never a fabricated request.
func TestParseTornFrames(t *testing.T) {
	cases := []struct {
		name  string
		input string
		err   error
	}{
		{"empty stream", "", io.EOF},
		{"torn command line", "get fo", io.ErrUnexpectedEOF},
		{"torn header", "set k 0 0 5", io.ErrUnexpectedEOF},
		{"torn body", "set k 0 0 5\r\nhel", io.ErrUnexpectedEOF},
		{"missing body terminator", "set k 0 0 5\r\nhello", io.ErrUnexpectedEOF},
		{"torn oversized discard", "set k 0 0 65\r\nshort", io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newTestParser(tc.input)
			var r Request
			if err := p.ParseRequest(&r); err != tc.err {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
		})
	}
}

// TestValueCodec round-trips the flags header encoding.
func TestValueCodec(t *testing.T) {
	block := encodeValue(nil, 0xDEADBEEF, []byte("payload"))
	flags, val := decodeValue(block)
	if flags != 0xDEADBEEF || string(val) != "payload" {
		t.Fatalf("round-trip gave flags=%#x val=%q", flags, val)
	}
	// Foreign short blocks (written by an in-process sharer of the
	// store) degrade to flags 0, raw bytes.
	flags, val = decodeValue([]byte("ab"))
	if flags != 0 || string(val) != "ab" {
		t.Fatalf("short block gave flags=%d val=%q", flags, val)
	}
}

// TestHashKeyDistinct sanity-checks the wire-key hash.
func TestHashKeyDistinct(t *testing.T) {
	if HashKey("foo") == HashKey("bar") || HashKey("") == HashKey("foo") {
		t.Fatal("suspicious hash collisions on trivial keys")
	}
	if HashKey("foo") != HashKey("foo") {
		t.Fatal("hash not deterministic")
	}
}

// TestParserReuseDoesNotAlias pins the documented buffer ownership:
// a request's Value is only valid until the next ParseRequest, and
// the connection layer copies — so the parser may reuse it.
func TestParserReuseDoesNotAlias(t *testing.T) {
	p := newTestParser("set a 0 0 3\r\nAAA\r\nset b 0 0 3\r\nBBB\r\n")
	var r Request
	if err := p.ParseRequest(&r); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), r.Value...)
	if err := p.ParseRequest(&r); err != nil {
		t.Fatal(err)
	}
	if string(saved) != "AAA" || string(r.Value) != "BBB" {
		t.Fatalf("copied value %q, second value %q", saved, r.Value)
	}
}
