package locks

import (
	"sync/atomic"
	"time"

	"repro/internal/numa"
	"repro/internal/spin"
)

// HBOConfig holds the four backoff parameters of the hierarchical
// backoff lock. The paper stresses that HBO's performance is highly
// sensitive to these and that no single setting works across
// workloads; the registry therefore exposes two named presets.
type HBOConfig struct {
	// LocalMin/LocalMax bound the backoff window when the observed
	// owner is in the waiter's own cluster (short: stay aggressive to
	// keep the lock local).
	LocalMin, LocalMax int64
	// RemoteMin/RemoteMax bound the window when the owner is remote
	// (long: concede to the owning cluster).
	RemoteMin, RemoteMax int64
}

// LBenchHBOConfig is the preset tuned for the LBench microbenchmark
// (long remote backoff strongly favouring lock locality). The paper's
// Figures 2-5 use the microbenchmark-tuned HBO.
func LBenchHBOConfig() HBOConfig {
	return HBOConfig{LocalMin: 32, LocalMax: 512, RemoteMin: 1024, RemoteMax: 32768}
}

// AppHBOConfig is the preset re-tuned for memcached ("HBO (tuned)" in
// Tables 1 and 2): much shorter windows that behave well at moderate
// contention but melt down when contention is extreme.
func AppHBOConfig() HBOConfig {
	return HBOConfig{LocalMin: 8, LocalMax: 128, RemoteMin: 32, RemoteMax: 512}
}

// HBO is the hierarchical backoff lock of Radović and Hagersten: a
// test-and-test-and-set lock whose word records the owner's cluster,
// letting same-cluster waiters back off briefly and remote waiters
// back off long, biasing handoffs toward the owning cluster. Simple
// but unfair and tuning-sensitive — the traits the paper contrasts
// cohort locks against. It implements both Mutex and TryMutex (the
// paper's A-HBO aborts by "simply returning a failure flag").
type HBO struct {
	word atomic.Int32 // -1 free, otherwise owner cluster id
	_    numa.Pad
	cfg  HBOConfig
}

// NewHBO returns an HBO lock with the given tuning.
func NewHBO(cfg HBOConfig) *HBO {
	l := &HBO{cfg: cfg}
	l.word.Store(-1)
	return l
}

// Lock acquires the lock, backing off per the hierarchical policy.
func (l *HBO) Lock(p *numa.Proc) {
	l.lock(p, 0, false)
}

// TryLockFor attempts acquisition until patience expires.
func (l *HBO) TryLockFor(p *numa.Proc, patience time.Duration) bool {
	return l.lock(p, spin.Deadline(patience), true)
}

func (l *HBO) lock(p *numa.Proc, deadline int64, abortable bool) bool {
	me := int32(p.Cluster())
	local := spin.NewBackoff(spin.PolicyExponential, l.cfg.LocalMin, l.cfg.LocalMax, p.Rand())
	remote := spin.NewBackoff(spin.PolicyExponential, l.cfg.RemoteMin, l.cfg.RemoteMax, p.Rand())
	for {
		w := l.word.Load()
		if w == -1 {
			if l.word.CompareAndSwap(-1, me) {
				return true
			}
			continue
		}
		if abortable && spin.Expired(deadline) {
			return false
		}
		if w == me {
			local.Wait()
		} else {
			remote.Wait()
		}
	}
}

// Unlock releases the lock.
func (l *HBO) Unlock(_ *numa.Proc) {
	l.word.Store(-1)
}
