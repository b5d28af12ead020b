package tenant

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the live tenant table: an atomically-swappable Snapshot
// (identity, limits, cluster key) plus per-tenant limiter state that
// persists across reloads. The request path only touches the atomic
// pointer and the per-tenant mutex, never a registry-wide lock.
type Registry struct {
	snap atomic.Pointer[Snapshot]

	mu     sync.Mutex
	states map[string]*limiterState // keyed by tenant ID, survives Reload
}

// NewRegistry returns a registry serving snap; a nil snap means open
// mode (OpenSnapshot).
func NewRegistry(snap *Snapshot) *Registry {
	if snap == nil {
		snap = OpenSnapshot()
	}
	r := &Registry{states: map[string]*limiterState{}}
	r.snap.Store(snap)
	return r
}

// Snapshot returns the current config snapshot.
func (r *Registry) Snapshot() *Snapshot { return r.snap.Load() }

// Reload swaps in a new snapshot. Limiter state keyed by tenant ID is
// kept: tenants present in both configs carry their debt across the
// reload, removed tenants' state is dropped so the map stays bounded by
// the config.
func (r *Registry) Reload(snap *Snapshot) {
	r.snap.Store(snap)
	r.mu.Lock()
	for id := range r.states {
		if _, ok := snap.ByID[id]; !ok {
			delete(r.states, id)
		}
	}
	r.mu.Unlock()
}

// ClusterKey returns the current peer-signing key (nil in open mode).
// Safe to call concurrently with Reload; callers must not mutate it.
func (r *Registry) ClusterKey() []byte { return r.snap.Load().ClusterKey }

// Lookup resolves a presented API key to a tenant. An empty key maps to
// the anon pseudo-tenant when enabled. When no keys are declared at all
// (open mode), presented credentials are ignored rather than rejected,
// so pre-tenancy clients keep working against an unconfigured server.
// The second result is false when the caller must be rejected with 401.
func (r *Registry) Lookup(key string) (*Tenant, bool) {
	snap := r.snap.Load()
	if key == "" || len(snap.ByKey) == 0 {
		return snap.Anon, snap.Anon != nil
	}
	t, ok := snap.ByKey[key]
	return t, ok
}

// state returns (creating if needed) the limiter state for id.
func (r *Registry) state(id string) *limiterState {
	r.mu.Lock()
	ls := r.states[id]
	if ls == nil {
		ls = &limiterState{}
		r.states[id] = ls
	}
	r.mu.Unlock()
	return ls
}

// Admit runs the rate-limit and byte-quota checks for t at time now,
// consuming one token when admitted. The returned Decision carries the
// denial reason and this tenant's own Retry-After.
func (r *Registry) Admit(t *Tenant, now time.Time) Decision {
	if t.RateRPS <= 0 && t.QuotaBytes <= 0 {
		return Decision{OK: true}
	}
	ls := r.state(t.ID)
	if d := ls.quotaCheck(t, now); !d.OK {
		return d
	}
	return ls.admit(t, now)
}

// AccountBytes charges n request+response bytes against id's rolling
// quota window.
func (r *Registry) AccountBytes(id string, n int64, now time.Time) {
	if n <= 0 {
		return
	}
	snap := r.snap.Load()
	t := snap.ByID[id]
	if t == nil || t.QuotaBytes <= 0 {
		return // no quota configured; skip the ring entirely
	}
	r.state(id).chargeBytes(n, now)
}

// WindowBytes reports id's current rolling-window byte usage, for the
// cpackd_tenant_quota_window_bytes gauge.
func (r *Registry) WindowBytes(id string, now time.Time) int64 {
	r.mu.Lock()
	ls := r.states[id]
	r.mu.Unlock()
	if ls == nil {
		return 0
	}
	return ls.windowBytes(now)
}
