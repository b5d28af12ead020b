package tenant

import (
	"math"
	"sync"
	"time"
)

// QuotaWindow is the rolling window byte quotas are accounted over.
const QuotaWindow = 60 * time.Second

// limiterState is the mutable per-tenant side of rate limiting: the
// token bucket level and the rolling byte-quota ring. It is keyed by
// tenant ID in the Registry and deliberately survives config reloads —
// new limits apply to accumulated debt rather than wiping it, so a
// SIGHUP can't be used to dodge a quota.
type limiterState struct {
	mu sync.Mutex

	// Token bucket: tokens refill at the tenant's RateRPS up to Burst.
	tokens   float64
	lastFill time.Time

	// Byte quota: ring of per-second buckets covering QuotaWindow.
	// buckets[i] counts bytes for unix second base+i (mod len).
	buckets [60]int64
	seconds [60]int64 // which unix second each bucket currently holds
}

// Decision is the outcome of an admission check.
type Decision struct {
	OK bool
	// Reason is "rate" or "quota" when !OK — the metric label for the
	// denial.
	Reason string
	// RetryAfter is how long this tenant must wait before the denied
	// dimension would admit one more request. It is derived from the
	// tenant's own debt, never from global server state.
	RetryAfter time.Duration
}

// admit runs the token-bucket check against limits (from the current
// snapshot) at time now. It consumes one token on success.
func (ls *limiterState) admit(limits *Tenant, now time.Time) Decision {
	if limits.RateRPS <= 0 {
		return Decision{OK: true}
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.lastFill.IsZero() {
		ls.tokens = limits.Burst
	} else if dt := now.Sub(ls.lastFill).Seconds(); dt > 0 {
		ls.tokens = math.Min(limits.Burst, ls.tokens+dt*limits.RateRPS)
	}
	ls.lastFill = now
	if ls.tokens >= 1 {
		ls.tokens--
		return Decision{OK: true}
	}
	// Time until the bucket refills to one token — this tenant's own
	// debt, independent of anyone else's load.
	need := (1 - ls.tokens) / limits.RateRPS
	return Decision{Reason: "rate", RetryAfter: secsDuration(need)}
}

// chargeBytes records n bytes against the rolling quota at time now.
// Accounting is post-hoc (response sizes aren't known at admission), so
// a tenant can overshoot by one in-flight request; the next admission
// check sees the debt.
func (ls *limiterState) chargeBytes(n int64, now time.Time) {
	if n <= 0 {
		return
	}
	sec := now.Unix()
	i := int(sec % int64(len(ls.buckets)))
	ls.mu.Lock()
	if ls.seconds[i] != sec {
		ls.seconds[i] = sec
		ls.buckets[i] = 0
	}
	ls.buckets[i] += n
	ls.mu.Unlock()
}

// quotaCheck returns whether the tenant is within its byte quota at
// time now, and if not, how long until enough of the window has rolled
// off to admit traffic again.
func (ls *limiterState) quotaCheck(limits *Tenant, now time.Time) Decision {
	if limits.QuotaBytes <= 0 {
		return Decision{OK: true}
	}
	sec := now.Unix()
	horizon := sec - int64(len(ls.buckets)) // buckets older than this are stale
	var used int64
	oldest := sec
	ls.mu.Lock()
	for i := range ls.buckets {
		if ls.seconds[i] > horizon && ls.seconds[i] <= sec {
			used += ls.buckets[i]
			if ls.buckets[i] > 0 && ls.seconds[i] < oldest {
				oldest = ls.seconds[i]
			}
		}
	}
	ls.mu.Unlock()
	if used < limits.QuotaBytes {
		return Decision{OK: true}
	}
	// The earliest non-empty bucket rolls off the window first; waiting
	// until then frees at least some budget.
	wait := time.Duration(oldest-horizon) * time.Second
	if wait < time.Second {
		wait = time.Second
	}
	return Decision{Reason: "quota", RetryAfter: wait}
}

// windowBytes reports current rolling-window byte usage (for /metrics).
func (ls *limiterState) windowBytes(now time.Time) int64 {
	sec := now.Unix()
	horizon := sec - int64(len(ls.buckets))
	var used int64
	ls.mu.Lock()
	for i := range ls.buckets {
		if ls.seconds[i] > horizon && ls.seconds[i] <= sec {
			used += ls.buckets[i]
		}
	}
	ls.mu.Unlock()
	return used
}

// secsDuration converts fractional seconds to a Duration, rounding up
// to a floor of one second so Retry-After is always >= 1.
func secsDuration(s float64) time.Duration {
	if s < 1 {
		return time.Second
	}
	if s > 3600 {
		return time.Hour
	}
	return time.Duration(math.Ceil(s)) * time.Second
}
