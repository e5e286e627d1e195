package spin

// Parker gives a queue-lock waiter spin-then-park waiting for
// oversubscribed deployments. The paper's machine dedicates a hardware
// context to every thread, so queue waiters spin; under the Go
// runtime, once goroutines outnumber GOMAXPROCS, a FIFO hand-off to a
// descheduled waiter costs a full scheduler round-trip (tens of
// microseconds), collapsing every queue lock. A Parker lets the waiter
// block in the runtime and lets the releaser wake exactly its
// successor — the spin-then-block adaptation the paper notes the
// cohorting transformation accommodates (§1, §2.1).
//
// Protocol: the releaser makes the waiter's condition true (an atomic
// store) and then calls Wake, which deposits a token in a one-slot
// channel without ever blocking. The waiter re-checks its condition
// immediately before blocking on the channel, so a wake between check
// and block is caught by the buffered token. A token left over from a
// hand-off that the waiter observed by spinning (a "stale" token) at
// worst causes one spurious re-check in a later wait; it can never
// absorb a needed wake, because Wake-after-condition always finds
// either an empty buffer (send succeeds) or a stale token the waiter
// is about to consume.
//
// Each numa.Proc owns one Parker: a goroutine waits for one condition
// at a time, and a token meant for an earlier wait, on any lock, is
// stale. Publish and wake: a waiter that names its parker in a record
// does so before its condition check, and the waker loads it after its
// condition store; both are sequentially consistent, so one sees the other.
type Parker struct {
	ch chan struct{}
}

// MakeParker returns a ready Parker. numa.New calls this once per
// proc; the zero Parker is not usable.
func MakeParker() Parker {
	return Parker{ch: make(chan struct{}, 1)}
}

// Wait blocks until cond() is true. With dedicated processors it spins
// exactly like Poll; when oversubscribed it spins a hot window and
// then parks, relying on the releaser's Wake.
func (pk *Parker) Wait(cond func() bool) {
	for i := 0; ; i++ {
		if cond() {
			return
		}
		if i < hotSpinIters {
			Pause(16)
			continue
		}
		if !oversubscribed.Load() {
			Pause(64)
			continue
		}
		select {
		case <-pk.ch:
			// Token (possibly stale): loop to re-check the condition.
		default:
			if cond() {
				return
			}
			<-pk.ch
		}
	}
}

// Wake deposits a wake token; it never blocks. Call only after the
// waiter's condition has been made visible (the condition store must
// precede Wake in program order).
func (pk *Parker) Wake() {
	select {
	case pk.ch <- struct{}{}:
	default:
	}
}
