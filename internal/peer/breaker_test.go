package peer

import (
	"testing"
	"time"
)

// fakeClock drives a breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := newBreaker(threshold, cooldown)
	b.now = clk.now
	return b, clk
}

// TestBreakerTransitions is the table-driven open/half-open/close
// suite: each case is a scripted event sequence and the state it must
// end in.
func TestBreakerTransitions(t *testing.T) {
	const cooldown = time.Second
	type step struct {
		event string // "fail", "ok", "release", "wait", "allow", "deny"
	}
	cases := []struct {
		name  string
		steps []string
		state string
	}{
		{"stays closed below threshold", []string{"fail", "fail", "allow"}, "closed"},
		{"opens at threshold", []string{"fail", "fail", "fail", "deny"}, "open"},
		{"success resets the streak", []string{"fail", "fail", "ok", "fail", "fail", "allow"}, "closed"},
		{"probe allowed after cooldown", []string{"fail", "fail", "fail", "wait", "allow"}, "half-open"},
		{"probe success closes", []string{"fail", "fail", "fail", "wait", "allow", "ok", "allow"}, "closed"},
		{"probe failure reopens", []string{"fail", "fail", "fail", "wait", "allow", "fail", "deny"}, "open"},
		{"second probe after reopen cooldown", []string{"fail", "fail", "fail", "wait", "allow", "fail", "wait", "allow", "ok"}, "closed"},
		{"released probe frees the slot", []string{"fail", "fail", "fail", "wait", "allow", "release", "allow"}, "half-open"},
		{"release keeps the failure streak", []string{"fail", "fail", "release", "fail", "deny"}, "open"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, clk := newTestBreaker(3, cooldown)
			for i, ev := range tc.steps {
				switch ev {
				case "fail":
					b.failure()
				case "ok":
					b.success()
				case "release":
					b.release()
				case "wait":
					clk.advance(cooldown + time.Millisecond)
				case "allow":
					if !b.allow() {
						t.Fatalf("step %d: allow() = false, want true (state %s)",
							i, b.snapshot().State)
					}
				case "deny":
					if b.allow() {
						t.Fatalf("step %d: allow() = true, want false (state %s)",
							i, b.snapshot().State)
					}
				}
			}
			if got := b.snapshot().State; got != tc.state {
				t.Errorf("final state %s, want %s", got, tc.state)
			}
		})
	}
}

// TestBreakerSingleProbe pins the half-open contract: exactly one probe
// is admitted per cooldown window until it resolves.
func TestBreakerSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.failure() // threshold 1: open immediately
	if b.allow() {
		t.Fatal("open breaker admitted a request")
	}
	clk.advance(2 * time.Second)
	if !b.allow() {
		t.Fatal("cooldown elapsed but probe denied")
	}
	if b.allow() {
		t.Fatal("second concurrent probe admitted in half-open")
	}
	b.success()
	if !b.allow() || !b.allow() {
		t.Fatal("closed breaker must admit freely")
	}
	if snap := b.snapshot(); snap.Opens != 1 {
		t.Errorf("opens = %d, want 1", snap.Opens)
	}
}
