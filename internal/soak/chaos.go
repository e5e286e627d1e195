package soak

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultnet"
)

// Storm is a chaos fault schedule (see faultnet.Faults); FaultCounters
// aggregates what a run actually injected. Aliased so soak callers
// configure chaos without importing faultnet themselves.
type (
	Storm         = faultnet.Faults
	FaultCounters = faultnet.Counters
)

// DefaultStorm is the stock chaos schedule: enough latency, short
// reads/writes, probabilistic mid-frame resets, and brief stalls to
// exercise every fault path the verification model covers, while
// leaving most operations able to complete (a storm that kills every
// burst proves only that nothing works).
func DefaultStorm(seed int64) Storm {
	return Storm{
		Seed:        seed,
		Latency:     2 * time.Millisecond,
		ShortReads:  0.2,
		ShortWrites: 0.15,
		FragmentGap: 2 * time.Millisecond,
		ResetProb:   0.02,
		StallProb:   0.01,
		StallFor:    150 * time.Millisecond,
	}
}

// arrange sets up the run's data path. Plain runs dial Addr directly
// and the cleanup just polls stats. Chaos runs interpose a faultnet
// proxy running the storm schedule, arm a timer that clears the
// faults at the storm/recovery boundary, and clean up by tearing the
// proxy down, waiting the quiet tail, and polling the server's stats
// DIRECTLY (not through the dead proxy).
func (o *Options) arrange() (addr string, cleanup func(*Result), err error) {
	if !o.Chaos {
		return o.Addr, func(res *Result) { o.pollStats(res) }, nil
	}
	storm := DefaultStorm(o.Seed)
	if o.Storm != nil {
		storm = *o.Storm
	}
	inj := faultnet.NewInjector(storm)
	proxy, err := faultnet.NewProxy("127.0.0.1:0", o.Addr, inj)
	if err != nil {
		return "", nil, fmt.Errorf("soak: chaos proxy: %w", err)
	}
	stormFor := time.Duration(float64(o.Duration) * o.StormFraction)
	o.logf("chaos: storm phase %v through proxy %s (then faults clear for %v)",
		stormFor.Round(time.Millisecond), proxy.Addr(), (o.Duration - stormFor).Round(time.Millisecond))
	clear := time.AfterFunc(stormFor, func() {
		inj.Set(faultnet.Faults{})
		o.logf("chaos: faults cleared — recovery phase")
	})
	return proxy.Addr(), func(res *Result) {
		clear.Stop()
		res.Faults = inj.Counters()
		proxy.Close()
		time.Sleep(o.QuietTail)
		o.pollStats(res)
	}, nil
}

func (o *Options) pollStats(res *Result) {
	st, err := FetchStats(o.Addr)
	if err != nil {
		o.logf("soak: stats poll failed (server may not speak the stats verb): %v", err)
		return
	}
	res.Server = st
}

// ServerStats is the server's own post-run accounting, parsed from the
// wire stats verb: the fault counters a chaos run reads against what
// its proxy injected.
type ServerStats struct {
	EvictedConns uint64 `json:"evicted_conns"`
	ClientGone   uint64 `json:"client_gone"`
}

// FetchStats issues the stats command on a fresh connection to addr
// and parses the fields this harness understands, ignoring the rest.
func FetchStats(addr string) (*ServerStats, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write([]byte("stats\r\n")); err != nil {
		return nil, err
	}
	rd := bufio.NewReader(c)
	st := &ServerStats{}
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("reading stats: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" {
			return st, nil
		}
		f := strings.Fields(line)
		if len(f) != 3 || f[0] != "STAT" {
			return nil, fmt.Errorf("unexpected stats line %q", line)
		}
		v, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			continue // non-numeric stat from a foreign server: skip
		}
		switch f[1] {
		case "evicted_conns":
			st.EvictedConns = uint64(v)
		case "client_gone":
			st.ClientGone = uint64(v)
		}
	}
}
