// Package soak is the load-and-verify engine behind cmd/kvsoak: a
// mixed get/set load over real TCP sockets against any memcached text
// server, with a verification model strong enough to survive — and a
// chaos mode built to cause — connection faults.
//
// The consistency model each worker enforces on its own keys (key
// names embed the worker id, so workers never share):
//
//   - every value read must render-compare to a value this worker
//     actually issued for that key (payloads embed worker, key, seq);
//   - a read must never observe a seq OLDER than the newest set the
//     server ACKNOWLEDGED for that key — that is a lost acked write,
//     the one violation nothing (drain, eviction, fault) may cause.
//     Misses stay legal: the store's LRU may evict.
//
// Connection cuts are expected, not errors: the worker reconnects with
// capped exponential backoff plus jitter and retries only idempotent
// operations (gets). A set whose ack never arrived is recorded as
// indeterminate — it MAY have been applied — so its seq is accepted on
// later reads but never required, and it is never retried (retrying a
// set would double-apply it if the first copy landed).
package soak

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// Options parameterizes a run. Addr, Conns, Duration, Keys, ValSize
// and Pipeline are required (Run validates); the chaos fields are
// described in chaos.go.
type Options struct {
	Addr     string
	Conns    int
	RPS      int // target ops/sec across all conns, 0 = unthrottled
	Duration time.Duration
	Mix      int // get percentage of the op mix
	Keys     int // distinct keys per connection
	ValSize  int
	Pipeline int // ops per socket write
	Seed     int64

	// Chaos interposes a faultnet proxy between the workers and Addr:
	// the storm phase (StormFraction of Duration, default 0.6) runs
	// the Storm fault schedule, then faults clear for the recovery
	// tail. After the load ends, QuietTail elapses before the server's
	// stats are polled, so the connections the proxy cut have been
	// torn down and counted.
	Chaos         bool
	Storm         *Storm        // nil = DefaultStorm(Seed)
	StormFraction float64       // (0,1); default 0.6
	SettleDelay   time.Duration // pause after a reconnect; default 150ms
	QuietTail     time.Duration // load-end → stats-poll gap; default 750ms

	// Log, when non-nil, narrates phase transitions.
	Log func(format string, args ...any)
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o *Options) validate() error {
	if o.Addr == "" {
		return fmt.Errorf("soak: Addr required")
	}
	for name, v := range map[string]int{
		"Conns": o.Conns, "Keys": o.Keys, "ValSize": o.ValSize, "Pipeline": o.Pipeline,
	} {
		if v <= 0 {
			return fmt.Errorf("soak: %s must be positive, got %d", name, v)
		}
	}
	if o.Mix < 0 || o.Mix > 100 {
		return fmt.Errorf("soak: Mix %d outside [0,100]", o.Mix)
	}
	// Payloads embed "w<id>-k<key>-s<seq>-" and verification parses it
	// back out; values too small to hold the header would truncate it
	// and read as corruption.
	if o.ValSize < 48 {
		return fmt.Errorf("soak: ValSize %d below the 48-byte payload-header minimum", o.ValSize)
	}
	if o.Duration <= 0 {
		return fmt.Errorf("soak: Duration must be positive")
	}
	if o.StormFraction == 0 {
		o.StormFraction = 0.6
	}
	if o.StormFraction < 0 || o.StormFraction >= 1 {
		return fmt.Errorf("soak: StormFraction %v outside (0,1)", o.StormFraction)
	}
	if o.SettleDelay == 0 {
		o.SettleDelay = 150 * time.Millisecond
	}
	if o.QuietTail == 0 {
		o.QuietTail = 750 * time.Millisecond
	}
	return nil
}

// Result is a run's summary (also cmd/kvsoak's -json core).
type Result struct {
	Ops     uint64 `json:"ops"`
	Gets    uint64 `json:"gets"`
	Hits    uint64 `json:"hits"`
	Sets    uint64 `json:"sets"`
	Errors  uint64 `json:"errors"`
	Dropped uint64 `json:"dropped"`
	// Retries counts idempotent operations (gets) re-issued after a
	// connection cut. Sets are never retried — see IndeterminateOps.
	Retries uint64 `json:"retries"`
	// IndeterminateOps counts sets whose acknowledgment never arrived
	// because the connection died first: they may or may not have been
	// applied, so their seqs are accepted but never required, and they
	// are never counted as lost OR as durable.
	IndeterminateOps uint64 `json:"indeterminate_ops"`
	// LostAckedWrites counts reads that observed a value OLDER than an
	// acknowledged set for the key — the contract violation. Any
	// nonzero value fails the run.
	LostAckedWrites uint64 `json:"lost_acked_writes"`
	// Reconnects counts successful re-dials after a connection cut.
	Reconnects uint64 `json:"reconnects"`

	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`

	// Faults aggregates what the chaos proxy actually injected (zero
	// when Chaos is off); Server is the server's own post-run stats
	// dump (nil when the stats verb is unreachable).
	Faults FaultCounters `json:"faults"`
	Server *ServerStats  `json:"server,omitempty"`
}

func (r *Result) add(w *Result) {
	r.Ops += w.Ops
	r.Gets += w.Gets
	r.Hits += w.Hits
	r.Sets += w.Sets
	r.Errors += w.Errors
	r.Dropped += w.Dropped
	r.Retries += w.Retries
	r.IndeterminateOps += w.IndeterminateOps
	r.LostAckedWrites += w.LostAckedWrites
	r.Reconnects += w.Reconnects
}

// Problems returns the run's contract violations, empty on a clean
// run.
func (r *Result) Problems() []string {
	var ps []string
	if r.LostAckedWrites > 0 {
		ps = append(ps, fmt.Sprintf("%d acknowledged writes lost (read observed an older value than a STORED-acked set)", r.LostAckedWrites))
	}
	if r.Errors > 0 {
		ps = append(ps, fmt.Sprintf("%d verification errors (corrupt or never-issued values, malformed responses)", r.Errors))
	}
	return ps
}

// Run executes the load and returns its aggregated result. The error
// is operational (bad options, proxy failure) — verification failures
// live in the Result, judged by Problems.
func Run(opt Options) (Result, error) {
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	addr, cleanup, err := opt.arrange()
	if err != nil {
		return Result{}, err
	}

	began := time.Now()
	stop := began.Add(opt.Duration)
	results := make([]Result, opt.Conns)
	var wg sync.WaitGroup
	for i := 0; i < opt.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := newWorker(&opt, i, addr)
			w.run(stop)
			results[i] = w.res
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(began).Seconds()

	var res Result
	for i := range results {
		res.add(&results[i])
	}
	res.Seconds = elapsed
	if elapsed > 0 {
		res.OpsPerSec = float64(res.Ops) / elapsed
	}
	cleanup(&res)
	return res, nil
}

// worker owns one connection's load, state, and verification. Key
// names embed the worker id, so key spaces are disjoint by
// construction and all ordering reasoning is per-worker.
type worker struct {
	opt  *Options
	id   int
	addr string
	res  Result

	rng uint64
	seq uint64 // per-worker set sequence, unique across its keys

	// acked[k] is the newest seq the server acknowledged with STORED
	// for key k; issuedMax[k] the newest seq ever SENT for it. A read
	// of key k must land in [acked[k], issuedMax[k]] — below acked is
	// a lost acked write, above issuedMax a fabricated value.
	acked     []uint64
	issuedMax []uint64

	retry []int // keys whose gets were cut mid-flight, to re-issue

	conns   int
	backoff time.Duration

	reqBuf, valBuf, wantBuf []byte
}

func newWorker(opt *Options, id int, addr string) *worker {
	return &worker{
		opt:       opt,
		id:        id,
		addr:      addr,
		rng:       uint64(opt.Seed)*0x9E3779B97F4A7C15 + uint64(id)*2654435761 + 1,
		acked:     make([]uint64, opt.Keys),
		issuedMax: make([]uint64, opt.Keys),
		valBuf:    make([]byte, 0, opt.ValSize),
		wantBuf:   make([]byte, 0, opt.ValSize),
	}
}

func (w *worker) next() uint64 {
	w.rng = w.rng*6364136223846793005 + 1442695040888963407
	return w.rng >> 33
}

// run is the worker's whole life: sessions separated by reconnects
// until the stop time. Whatever is still queued for retry at the end
// was dropped, not lost.
func (w *worker) run(stop time.Time) {
	for time.Now().Before(stop) {
		c := w.connect(stop)
		if c == nil {
			break
		}
		w.session(c, stop)
		c.Close()
	}
	w.res.Dropped += uint64(len(w.retry))
}

// connect dials with capped exponential backoff plus jitter, returning
// nil once the stop time passes. After a RECONNECT it also waits the
// settle delay: the server may still be applying the dead connection's
// buffered run, and new writes must order after those for the
// seq-monotonicity verification to be sound.
func (w *worker) connect(stop time.Time) net.Conn {
	const (
		backoffBase = 10 * time.Millisecond
		backoffCap  = 500 * time.Millisecond
	)
	for time.Now().Before(stop) {
		c, err := net.DialTimeout("tcp", w.addr, time.Second)
		if err == nil {
			w.backoff = 0
			if w.conns > 0 {
				w.res.Reconnects++
				time.Sleep(w.opt.SettleDelay)
			}
			w.conns++
			return c
		}
		if w.backoff == 0 {
			w.backoff = backoffBase
		} else if w.backoff < backoffCap {
			w.backoff *= 2
		}
		// Jitter in [backoff/2, backoff): reconnect storms from many
		// workers decorrelate instead of hammering in lockstep.
		d := w.backoff/2 + time.Duration(w.next()%uint64(w.backoff/2+1))
		time.Sleep(d)
	}
	return nil
}

// op is one in-flight operation of a pipelined burst.
type op struct {
	key     int
	get     bool
	seq     uint64
	retried bool
}

// session drives bursts over one connection until it dies or the run
// ends. On a cut, the burst's unanswered tail is classified: gets are
// queued for re-issue (idempotent), sets become indeterminate.
func (w *worker) session(c net.Conn, stop time.Time) {
	rd := bufio.NewReaderSize(c, 64<<10)
	burst := make([]op, 0, w.opt.Pipeline)

	var interval time.Duration
	if w.opt.RPS > 0 {
		perWorker := float64(w.opt.RPS) / float64(w.opt.Conns)
		interval = time.Duration(float64(w.opt.Pipeline) / perWorker * float64(time.Second))
	}
	due := time.Now()

	for time.Now().Before(stop) {
		if interval > 0 {
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			due = due.Add(interval)
		}
		burst = w.buildBurst(burst[:0])
		c.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write(w.reqBuf); err != nil {
			w.cut(burst, 0)
			return
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i := range burst {
			if err := w.readOne(rd, &burst[i]); err != nil {
				w.cut(burst, i)
				return
			}
		}
	}
}

// buildBurst assembles the next pipelined burst into w.reqBuf: queued
// get retries first, then fresh ops from the deterministic stream.
func (w *worker) buildBurst(burst []op) []op {
	w.reqBuf = w.reqBuf[:0]
	for len(burst) < w.opt.Pipeline && len(w.retry) > 0 {
		key := w.retry[0]
		w.retry = w.retry[1:]
		w.res.Retries++
		burst = w.appendGet(burst, key, true)
	}
	for len(burst) < w.opt.Pipeline {
		key := int(w.next()) % w.opt.Keys
		if int(w.next())%100 < w.opt.Mix && w.issuedMax[key] > 0 {
			burst = w.appendGet(burst, key, false)
		} else {
			w.seq++
			w.issuedMax[key] = w.seq
			burst = append(burst, op{key: key, seq: w.seq})
			w.valBuf = renderValue(w.valBuf, w.id, key, w.seq, w.opt.ValSize)
			w.reqBuf = append(w.reqBuf, fmt.Sprintf("set w%dk%d 0 0 %d\r\n", w.id, key, w.opt.ValSize)...)
			w.reqBuf = append(w.reqBuf, w.valBuf...)
			w.reqBuf = append(w.reqBuf, "\r\n"...)
		}
	}
	return burst
}

func (w *worker) appendGet(burst []op, key int, retried bool) []op {
	w.reqBuf = append(w.reqBuf, fmt.Sprintf("get w%dk%d\r\n", w.id, key)...)
	return append(burst, op{key: key, get: true, retried: retried})
}

// cut classifies a dying burst from index i on: unanswered gets are
// idempotent and re-queue; unanswered sets are indeterminate — maybe
// applied, maybe not — so they are neither retried (a double apply
// would be a new write) nor counted durable (acked stays put).
func (w *worker) cut(burst []op, i int) {
	for _, o := range burst[i:] {
		if o.get {
			w.retry = append(w.retry, o.key)
		} else {
			w.res.IndeterminateOps++
		}
	}
}

// readOne consumes one op's response and applies the verification
// model. A transport error returns non-nil (the caller cuts the
// burst); everything else — including contract violations, which are
// counted, not fatal — returns nil.
func (w *worker) readOne(rd *bufio.Reader, o *op) error {
	line, err := rd.ReadString('\n')
	if err != nil {
		return err
	}
	line = strings.TrimRight(line, "\r\n")
	switch {
	case line == "STORED":
		w.res.Ops++
		w.res.Sets++
		if o.get {
			w.res.Errors++ // a get answered STORED: stream out of frame
			return nil
		}
		// Acknowledged: from here on, reading anything older than
		// o.seq for this key is a lost acked write.
		if o.seq > w.acked[o.key] {
			w.acked[o.key] = o.seq
		}
		return nil
	case line == "END": // miss — legal under LRU eviction
		w.res.Ops++
		w.res.Gets++
		return nil
	case strings.HasPrefix(line, "VALUE "):
		var k string
		var flags, size uint64
		if _, err := fmt.Sscanf(line, "VALUE %s %d %d", &k, &flags, &size); err != nil || size > uint64(w.opt.ValSize) {
			w.res.Errors++
			return fmt.Errorf("bad VALUE line %q", line)
		}
		data := make([]byte, size+2)
		if _, err := io.ReadFull(rd, data); err != nil {
			return err
		}
		end, err := rd.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.TrimRight(end, "\r\n") != "END" {
			w.res.Errors++
			return fmt.Errorf("missing END after VALUE, got %q", end)
		}
		w.res.Ops++
		w.res.Gets++
		w.res.Hits++
		w.verify(o.key, data[:size])
		return nil
	default:
		w.res.Errors++
		return fmt.Errorf("unexpected response %q", line)
	}
}

// verify checks a hit's payload against the worker's issue history:
// it must be byte-identical to a value this worker rendered for this
// key, with a seq no older than the newest ACKED set (older = lost
// acked write) and no newer than the newest ISSUED one (newer = the
// server fabricated data).
func (w *worker) verify(key int, data []byte) {
	prefix := fmt.Sprintf("w%d-k%d-s", w.id, key)
	if !bytes.HasPrefix(data, []byte(prefix)) {
		w.res.Errors++
		return
	}
	rest := data[len(prefix):]
	dash := bytes.IndexByte(rest, '-')
	if dash <= 0 {
		w.res.Errors++
		return
	}
	var seq uint64
	for _, c := range rest[:dash] {
		if c < '0' || c > '9' {
			w.res.Errors++
			return
		}
		seq = seq*10 + uint64(c-'0')
	}
	w.wantBuf = renderValue(w.wantBuf, w.id, key, seq, w.opt.ValSize)
	if !bytes.Equal(data, w.wantBuf) {
		w.res.Errors++
		return
	}
	switch {
	case seq < w.acked[key]:
		w.res.LostAckedWrites++
	case seq > w.issuedMax[key]:
		w.res.Errors++
	}
}

// renderValue is the deterministic payload for (worker, key, seq);
// verification re-renders and compares bytes.
func renderValue(buf []byte, w, key int, seq uint64, size int) []byte {
	buf = buf[:0]
	buf = append(buf, fmt.Sprintf("w%d-k%d-s%d-", w, key, seq)...)
	for len(buf) < size {
		buf = append(buf, 'x')
	}
	return buf[:size]
}
