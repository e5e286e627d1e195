// Package server is the store's wire-protocol front-end: a TCP server
// speaking the pipelined memcached text protocol (get/gets multi-key,
// set, delete, version, quit) over the sharded, batched kvstore.
//
// The design premise is the same amortization the batch APIs give
// in-process callers, carried across the socket: a connection's decode
// loop accumulates consecutive same-verb requests and flushes each run
// through MGetNamed/MSetNamed/MDeleteEach, so a pipelined burst of N same-shard
// operations costs ceil(N/MaxBatch) lock acquisitions instead of N.
// Responses are written only after the store call returns — an
// acknowledged write is in the store by construction, which is what
// makes graceful drain lossless (see Server.Shutdown).
//
// Protocol deviations from stock memcached, recorded here because the
// wire format is public API (see also DESIGN.md §5):
//
//   - Keys are hashed to the store's uint64 keyspace with FNV-1a. An
//     item stores its key name, and a get hits only the name it was
//     set under, so two distinct keys colliding in 64 bits overwrite
//     each other's item but miss on each other, never reading each
//     other's bytes; a delete of one drops its twin's item. Flags
//     round-trip by storing a 4-byte big-endian header ahead of the
//     value bytes.
//   - exptime is parsed and ignored — the store has no TTL (DESIGN.md
//     §2); cas unique values are served as an FNV-1a checksum of the
//     stored value ("gets" works, "cas" is not implemented).
//   - Storage verbs beyond set (add/replace/append/prepend/cas) have
//     their bodies consumed and answer "SERVER_ERROR not implemented",
//     keeping the stream in sync for stock clients that probe them.
package server

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Kind discriminates parsed requests.
type Kind uint8

const (
	// KindGet covers get and gets (Request.CAS tells them apart).
	KindGet Kind = iota
	// KindSet is a storage request with a parsed data block.
	KindSet
	// KindDelete removes one key.
	KindDelete
	// KindVersion answers the server version string.
	KindVersion
	// KindStats answers a "STAT <name> <value>" dump then END — the
	// wire-visible Stats snapshot (connections, ops, hits, flushes, …).
	KindStats
	// KindQuit closes the connection.
	KindQuit
)

// Limits bounds what the parser accepts; the zero value is unusable —
// callers fill it from Config defaults.
type Limits struct {
	// MaxValueBytes caps a set's declared data-block size. Larger
	// declarations are answered with SERVER_ERROR and the body is
	// consumed (or, beyond maxSwallowBytes, the connection is cut).
	MaxValueBytes int
}

// maxKeyBytes is the protocol's key length bound.
const maxKeyBytes = 250

// maxSwallowBytes bounds how much of an oversized data block the
// server reads and discards to keep the stream in sync before it
// gives up and cuts the connection instead.
const maxSwallowBytes = 8 << 20

// Request is one parsed client request. Keys and Value alias buffers
// the parser owns (never the bufio reader's window) and are valid only
// until the next ParseRequest call on the same Parser; the connection
// layer hashes keys at once and copies what it must keep.
type Request struct {
	Kind    Kind
	Keys    [][]byte // get/gets: 1..n keys; set/delete: exactly one
	CAS     bool     // gets: responses carry a cas unique value
	Flags   uint32   // set: opaque client flags, round-tripped
	NoReply bool     // set/delete: suppress the response
	Value   []byte   // set: the data block (without the CRLF)
}

// ProtoError is a protocol-level failure with the exact response line
// owed to the client. Close reports that the stream can no longer be
// trusted to be in frame sync and must be cut after the response.
type ProtoError struct {
	Line  string
	Close bool
}

func (e *ProtoError) Error() string { return e.Line }

var (
	errLineTooLong = &ProtoError{Line: "CLIENT_ERROR line too long", Close: true}
	errBadFormat   = &ProtoError{Line: "CLIENT_ERROR bad command line format"}
	errBadChunk    = &ProtoError{Line: "CLIENT_ERROR bad data chunk", Close: true}
	errTooLarge    = &ProtoError{Line: "SERVER_ERROR object too large for cache"}
	errUnknownCmd  = &ProtoError{Line: "ERROR"}
	errNotImpl     = &ProtoError{Line: "SERVER_ERROR command not implemented"}
)

// Parser decodes requests from a buffered stream, reusing its line,
// field and body buffers across calls so a steady pipelined decode
// loop allocates nothing. The command line is copied out of the bufio
// window before anything else is read: reading a storage command's
// data block may refill that window, and a key still aliasing it would
// silently become whatever bytes arrived next.
type Parser struct {
	r      *bufio.Reader
	lim    Limits
	line   []byte // the current command line, parser-owned
	body   []byte
	fields [][]byte // the line's fields, aliasing line
}

// NewParser wraps r. The bufio buffer bounds the accepted line length
// (requests whose command line overflows it are answered with
// CLIENT_ERROR and cut), so the caller sizes r as its request-line
// DoS bound.
func NewParser(r *bufio.Reader, lim Limits) *Parser {
	return &Parser{r: r, lim: lim}
}

// Buffered reports how many decoded-but-unparsed bytes sit in the
// underlying reader — the connection layer's "more pipelined input is
// already here" signal that defers flushing.
func (p *Parser) Buffered() int { return p.r.Buffered() }

// ParseRequest decodes one request into req. It returns nil and a
// filled req; or a *ProtoError carrying the response line the client
// is owed (req is invalid); or a transport error (io.EOF at a clean
// request boundary). It never panics on any input.
func (p *Parser) ParseRequest(req *Request) error {
	line, err := p.readLine()
	if err != nil {
		return err
	}
	*req = Request{}
	p.line = append(p.line[:0], line...)
	p.splitFields(p.line)
	if len(p.fields) == 0 {
		return errUnknownCmd
	}
	cmd := string(p.fields[0])
	args := p.fields[1:]
	switch cmd {
	case "get", "gets":
		if len(args) == 0 {
			return errBadFormat
		}
		for _, f := range args {
			if !validKey(f) {
				return errBadFormat
			}
		}
		req.Kind = KindGet
		req.Keys = args
		req.CAS = cmd == "gets"
		return nil
	case "set":
		return p.parseStorage(req, args, true)
	case "add", "replace", "append", "prepend":
		// Parse and consume like set to stay in frame sync, then
		// report the verb unimplemented.
		if err := p.parseStorage(req, args, false); err != nil {
			return err
		}
		return errNotImpl
	case "cas":
		// cas has an extra unique-id field between bytes and noreply.
		if len(args) == 5 || (len(args) == 6 && string(args[5]) == "noreply") {
			if err := p.parseStorage(req, args[:4], false); err != nil {
				return err
			}
			return errNotImpl
		}
		return errBadFormat
	case "delete":
		// Accept the historical "delete <key> 0 [noreply]" form too.
		if len(args) >= 2 && string(args[1]) == "0" {
			args = append(args[:1], args[2:]...)
		}
		if len(args) == 0 || len(args) > 2 || !validKey(args[0]) {
			return errBadFormat
		}
		if len(args) == 2 {
			if string(args[1]) != "noreply" {
				return errBadFormat
			}
			req.NoReply = true
		}
		req.Kind = KindDelete
		req.Keys = args[:1]
		return nil
	case "version":
		req.Kind = KindVersion
		return nil
	case "stats":
		// Sub-arguments (stats items, stats slabs, …) are accepted and
		// ignored: one unified dump.
		req.Kind = KindStats
		return nil
	case "quit":
		req.Kind = KindQuit
		return nil
	}
	return errUnknownCmd
}

// parseStorage parses "<key> <flags> <exptime> <bytes> [noreply]" and
// the following data block. When keep is false the block is still
// consumed (frame sync) but not retained. A malformed header whose
// bytes field IS readable still has its data block consumed before
// the error is reported, so the next pipelined request parses clean;
// an unreadable bytes field leaves the stream unframeable and the
// error demands a close.
func (p *Parser) parseStorage(req *Request, args [][]byte, keep bool) error {
	var size uint64
	sizeOK := false
	if len(args) >= 4 {
		size, sizeOK = parseUint(args[3], maxSwallowBytes)
	}
	badFormat := func() error {
		if !sizeOK {
			return &ProtoError{Line: errBadFormat.Line, Close: true}
		}
		if err := p.discard(int(size) + 2); err != nil {
			return err
		}
		return errBadFormat
	}
	if len(args) < 4 {
		// Too few fields to have declared a data block: nothing to
		// swallow, the next line is a fresh command.
		return errBadFormat
	}
	if len(args) > 5 {
		return badFormat()
	}
	if !validKey(args[0]) {
		return badFormat()
	}
	flags, ok := parseUint(args[1], 1<<32-1)
	if !ok {
		return badFormat()
	}
	// exptime: accepted and ignored (no TTL in the store); a leading
	// '-' is tolerated like memcached's "expire immediately".
	exp := args[2]
	if len(exp) > 0 && exp[0] == '-' {
		exp = exp[1:]
	}
	if _, ok := parseUint(exp, 1<<62); !ok {
		return badFormat()
	}
	if !sizeOK {
		// A parseable-but-huge size still has a data block behind it
		// that we refuse to stream: cut the connection.
		if _, huge := parseUint(args[3], 1<<62); huge {
			return &ProtoError{Line: errTooLarge.Line, Close: true}
		}
		return &ProtoError{Line: errBadFormat.Line, Close: true}
	}
	if len(args) == 5 {
		if string(args[4]) != "noreply" {
			return badFormat()
		}
		req.NoReply = true
	}
	if int(size) > p.lim.MaxValueBytes {
		// Swallow the declared block so the next request parses clean.
		if err := p.discard(int(size) + 2); err != nil {
			return err
		}
		return errTooLarge
	}
	if cap(p.body) < int(size)+2 {
		p.body = make([]byte, size+2)
	}
	body := p.body[:size+2]
	if _, err := io.ReadFull(p.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if body[size] != '\r' || body[size+1] != '\n' {
		return errBadChunk
	}
	if keep {
		req.Kind = KindSet
		req.Keys = args[:1]
		req.Flags = uint32(flags)
		req.Value = body[:size]
	}
	return nil
}

// readLine reads one CRLF- (or bare LF-) terminated line, without the
// terminator. A line overflowing the bufio buffer is a protocol
// violation (the buffer is the configured line-length bound).
func (p *Parser) readLine() ([]byte, error) {
	line, err := p.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errLineTooLong
	}
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// discard consumes n bytes (an oversized data block) so the stream
// stays in frame sync after an error response.
func (p *Parser) discard(n int) error {
	if _, err := p.r.Discard(n); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// splitFields splits line on single spaces into p.fields, reusing the
// backing array. Empty fields (doubled spaces) are dropped, matching
// the tolerance of a Fields-style split.
func (p *Parser) splitFields(line []byte) {
	p.fields = p.fields[:0]
	start := -1
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ' ' {
			if start >= 0 {
				p.fields = append(p.fields, line[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
}

// validKey enforces the protocol's key rules: 1..250 bytes, no
// whitespace or control characters.
func validKey(k []byte) bool {
	if len(k) == 0 || len(k) > maxKeyBytes {
		return false
	}
	for _, c := range k {
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// parseUint parses a decimal unsigned integer with an inclusive bound,
// rejecting empty input, non-digits and overflow.
func parseUint(b []byte, max uint64) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (max-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// HashKey maps a wire key — as the string a client holds or the bytes
// the parser hands up — to the store's uint64 keyspace (FNV-1a).
// Collisions can be crafted, so the server stores each set's key name
// beside its value and a get hits only on its own name: colliding keys
// share one item but never read each other's bytes.
func HashKey[K ~string | ~[]byte](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// PseudoCAS derives the cas unique value served by gets: an FNV-1a
// checksum of the stored value bytes. It changes whenever the value
// does, which is the monotonicity "gets" consumers rely on for
// read-your-writes checks; the cas storage verb itself is not
// implemented.
func PseudoCAS(value []byte) uint64 { return HashKey(value) }

// encodeValue prepends the 4-byte big-endian flags header under which
// values are stored, writing into dst (grown as needed) and returning
// the stored block.
func encodeValue(dst []byte, flags uint32, value []byte) []byte {
	need := 4 + len(value)
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	binary.BigEndian.PutUint32(dst, flags)
	copy(dst[4:], value)
	return dst
}

// decodeValue splits a stored block back into flags and value bytes.
// Blocks shorter than the header were not written by this server
// (another in-process writer shares the store); they answer as flags 0
// with the raw bytes.
func decodeValue(block []byte) (uint32, []byte) {
	if len(block) < 4 {
		return 0, block
	}
	return binary.BigEndian.Uint32(block), block[4:]
}
