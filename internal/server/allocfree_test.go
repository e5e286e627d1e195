package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/numa"
)

// servePipe serves one in-memory connection on p, the server's end
// passed through wrap, and returns the client's end; the test's
// cleanup closes it and waits for the serving goroutine.
func servePipe(t *testing.T, srv *Server, p *numa.Proc, wrap func(net.Conn) net.Conn) net.Conn {
	client, server := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serveConn(wrap(server), p)
		server.Close()
	}()
	t.Cleanup(func() {
		client.Close()
		<-served
	})
	return client
}

// TestPipelinedSetsKeepTheirKeys is the regression test for lost
// acknowledged sets: the parser used to take a set's key as a slice of
// the bufio window and convert it only after reading the data block,
// so a block straddling the 16 KiB window refilled it first and the
// value was stored — and STORED acknowledged — under whatever bytes
// then sat where the key had been. A pipelined burst of sets several
// windows long must leave every key readable, over the wire and in the
// store.
func TestPipelinedSetsKeepTheirKeys(t *testing.T) {
	const sets, valueLen = 400, 128
	topo := numa.New(2, 4)
	store := newTestStore(topo, 4, 0)
	srv, err := New(Config{Topo: topo, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// net.Pipe hands the server's reader exactly as many bytes as its
	// window has room for, so the burst below crosses the 16 KiB window
	// at the same requests on every run.
	client := servePipe(t, srv, topo.Proc(0), func(c net.Conn) net.Conn { return c })
	client.SetDeadline(time.Now().Add(10 * time.Second))

	key := func(i int) string { return fmt.Sprintf("key:%06d", i) }
	value := func(i int) string { return strings.Repeat(string(rune('a'+i%26)), valueLen-6) + fmt.Sprintf("%06d", i) }
	var burst strings.Builder
	for i := 0; i < sets; i++ {
		fmt.Fprintf(&burst, "set %s 0 0 %d\r\n%s\r\n", key(i), valueLen, value(i))
	}
	if burst.Len() < 3*readerBufBytes {
		t.Fatalf("burst of %d B does not span several %d B reader windows", burst.Len(), readerBufBytes)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := io.WriteString(client, burst.String())
		wrote <- err
	}()
	acks := make([]byte, sets*len("STORED\r\n"))
	if _, err := io.ReadFull(client, acks); err != nil {
		t.Fatalf("reading acknowledgements: %v", err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("writing the burst: %v", err)
	}
	if want := strings.Repeat("STORED\r\n", sets); string(acks) != want {
		t.Fatalf("acknowledgements: got %q", acks)
	}

	p := topo.Proc(1)
	dst := make([]byte, 4+valueLen)
	missing := 0
	for i := 0; i < sets; i++ {
		n, ok := store.Get(p, HashKey(key(i)), dst)
		if !ok || string(dst[4:n]) != value(i) {
			missing++
			continue
		}
		want := fmt.Sprintf("VALUE %s 0 %d\r\n%s\r\nEND\r\n", key(i), valueLen, value(i))
		if _, err := io.WriteString(client, "get "+key(i)+"\r\n"); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(client, got); err != nil || string(got) != want {
			t.Fatalf("get %s over the wire: %q, %v", key(i), got, err)
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d acknowledged sets are not in the store under their key", missing, sets)
	}
}

// TestParseAllocationFree pins the parser's steady state: once its
// line, field and body buffers have grown, parsing allocates nothing —
// in particular no string per key.
func TestParseAllocationFree(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&stream, "get key:%06d\r\n", i)
		fmt.Fprintf(&stream, "gets key:%06d key:%06d other:%d\r\n", i, i+1, i)
		fmt.Fprintf(&stream, "delete key:%06d\r\n", i)
		fmt.Fprintf(&stream, "delete key:%06d noreply\r\n", i)
		fmt.Fprintf(&stream, "set key:%06d 3 0 5\r\nhello\r\n", i)
	}
	src := bytes.NewReader(stream.Bytes())
	br := bufio.NewReaderSize(src, readerBufBytes)
	par := NewParser(br, Limits{MaxValueBytes: DefaultMaxValueBytes})
	var req Request
	parsed := 0
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset(stream.Bytes())
		br.Reset(src)
		for {
			err := par.ParseRequest(&req)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatalf("request %d: %v", parsed, err)
			}
			parsed++
		}
	})
	if parsed == 0 || allocs > 0 {
		t.Fatalf("parsed %d requests at %.2f allocs per pass over the stream, want 0", parsed, allocs)
	}
}

// noDeadlineConn drops deadline updates: net.Pipe arms a fresh timer
// (two allocations) on every SetDeadline, which is the pipe's cost, not
// the server's — a TCP connection updates its deadline in place.
type noDeadlineConn struct{ net.Conn }

func (noDeadlineConn) SetReadDeadline(time.Time) error  { return nil }
func (noDeadlineConn) SetWriteDeadline(time.Time) error { return nil }

// TestServeGetBurstAllocationFree serves pipelined bursts of 32 gets
// on one connection and requires that, once the connection's buffers
// have grown, a burst allocates nothing anywhere between the socket
// and the shards: not in the parser, the key-name staging, the store's
// routing and critical sections, or the response writer.
func TestServeGetBurstAllocationFree(t *testing.T) {
	const burstGets = 32
	topo := numa.New(2, 4)
	store := newTestStore(topo, 8, 0)
	srv, err := New(Config{Topo: topo, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	client := servePipe(t, srv, topo.Proc(0), func(c net.Conn) net.Conn { return noDeadlineConn{c} })

	var burst, want bytes.Buffer
	p := topo.Proc(1)
	for i := 0; i < burstGets; i++ {
		key := fmt.Sprintf("key:%06d", i)
		fmt.Fprintf(&burst, "get %s\r\n", key)
		if i%4 == 3 {
			want.WriteString("END\r\n") // a miss
			continue
		}
		val := bytes.Repeat([]byte{byte('a' + i%26)}, 100)
		storeSet(store, p, key, uint32(i), val)
		fmt.Fprintf(&want, "VALUE %s %d %d\r\n%s\r\nEND\r\n", key, i, len(val), val)
	}
	got := make([]byte, want.Len())
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := client.Write(burst.Bytes()); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(client, got); err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("burst answered\n%q\nwant\n%q", got, want.Bytes())
	}
	if allocs > 0 {
		t.Fatalf("%.2f allocations per %d-get burst at steady state, want 0", allocs, burstGets)
	}
}
