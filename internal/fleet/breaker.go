package fleet

import (
	"sync"
	"time"
)

// Per-replica circuit breaking. The DownAfter/upAfter hysteresis answers
// "is the process alive?" — it is driven by probes and transport failures
// and its trip fails sessions over. The breaker answers the softer
// question "is this replica currently worth sending work to?": it also
// counts overload answers (a replica that sheds everything is up but
// useless), its trip costs nothing to undo (no migration — routing simply
// flows around the replica until a probe request succeeds), and it recovers
// in one request instead of upAfter probe periods.
//
// States are the classic three:
//
//   - closed: requests flow; consecutive failures are counted and the
//     streak trips the breaker open at the threshold.
//   - open: requests are refused locally (new placements walk to a ring
//     successor; events on placed sessions shed with ErrOverloaded, which
//     the session client answers with jittered backoff, not a redial).
//     After the cooldown the next request transitions to half-open.
//   - half-open: exactly one trial request passes; its success closes the
//     breaker, its failure reopens it and restarts the cooldown.

// breakerState is the breaker's position: 0 closed, 1 open, 2 half-open.
// The numeric values are the fleet_breaker_state gauge's encoding and are
// pinned by docs/ROBUSTNESS.md.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String returns the state name used on /fleet.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one replica's circuit breaker. The zero value is not usable;
// build with newBreaker.
type breaker struct {
	mu        sync.Mutex
	threshold int           // consecutive failures that trip the breaker
	cooldown  time.Duration // open → half-open delay
	state     breakerState
	streak    int       // consecutive failures while closed
	openedAt  time.Time // when the breaker last opened
	probing   bool      // half-open: the single trial slot is taken
	now       func() time.Time
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// tickLocked applies the lazy open → half-open transition. There is no
// timer goroutine: the first observer past the cooldown performs the
// transition, which keeps an idle fleet completely quiet.
func (b *breaker) tickLocked() {
	if b.state == breakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		b.state = breakerHalfOpen
		b.probing = false
	}
}

// allow reports whether one request may pass now, consuming the half-open
// trial slot if that is what permits it. Callers that forward on true must
// report the outcome via recordOK/recordFail.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// ready reports whether a request would currently pass, without consuming
// the half-open trial slot — the non-mutating form placement predicates
// (the OwnerWhere successor walk) use to skip replicas that would refuse.
func (b *breaker) ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	return b.state == breakerClosed || (b.state == breakerHalfOpen && !b.probing)
}

// recordOK reports one successful forward: it clears the failure streak
// and closes a half-open breaker.
func (b *breaker) recordOK() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	b.streak = 0
	if b.state != breakerClosed {
		b.state = breakerClosed
		b.probing = false
	}
}

// recordFail reports one failed or overloaded forward: it reopens a
// half-open breaker immediately and trips a closed one once the
// consecutive streak reaches the threshold. Returns true when this call
// opened the breaker.
func (b *breaker) recordFail() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
		return true
	case breakerClosed:
		b.streak++
		if b.streak >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			b.streak = 0
			return true
		}
	}
	return false
}

// current returns the breaker's state for metrics and /fleet.
func (b *breaker) current() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	return b.state
}
