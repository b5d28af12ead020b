package peer

import (
	"sync"
	"time"
)

// Breaker states. The zero value (closed) is the healthy state.
const (
	breakerClosed int = iota
	breakerHalfOpen
	breakerOpen
)

func stateName(s int) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// breaker is a per-peer circuit breaker. Consecutive failures past the
// threshold open it: requests to that peer are skipped outright (the
// caller falls straight back to local compression) instead of eating a
// timeout each. After the cooldown one probe request is let through
// (half-open); success closes the breaker, failure re-opens it for
// another cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	mu        sync.Mutex
	state     int
	fails     int // consecutive failures while closed
	openUntil time.Time
	probing   bool   // a half-open probe is in flight
	opens     uint64 // lifetime closed/half-open -> open transitions
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a request to the peer may proceed. While open
// it returns false until the cooldown elapses, then admits exactly one
// probe at a time (half-open).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Before(b.openUntil) {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a request that completed against the peer (any
// well-formed HTTP response, including 404: the peer is alive).
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// failure records a transport failure, timeout, or a response the
// caller rejected (bad checksum, payload that failed verification). It
// reports whether this failure opened the breaker — the signal the
// membership failure detector listens to.
func (b *breaker) failure() (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.trip()
		return true
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
			return true
		}
	}
	return false
}

// release returns an admitted request's half-open probe slot without a
// verdict, for a caller that gave up before the peer answered: the next
// request probes instead.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// trip opens the breaker; callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openUntil = b.now().Add(b.cooldown)
	b.probing = false
	b.fails = 0
	b.opens++
}

// breakerSnap is a point-in-time view for metrics.
type breakerSnap struct {
	State string `json:"state"`
	Fails int    `json:"consecutive_failures"`
	Opens uint64 `json:"opens"`
}

func (b *breaker) snapshot() breakerSnap {
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerSnap{State: stateName(b.state), Fails: b.fails, Opens: b.opens}
}
