package server

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// counter is a monotonically increasing metric.
type counter struct{ v atomic.Uint64 }

func (c *counter) add(n uint64)  { c.v.Add(n) }
func (c *counter) value() uint64 { return c.v.Load() }

// latencyBuckets are the histogram upper bounds in seconds. The low end
// resolves cache-hit compress requests (tens of microseconds); the high
// end covers full-budget simulations.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. It is lock-free on
// the observe path — every request used to serialize on a mutex here —
// with per-bucket atomic counters, the running sum sharded across CAS'd
// float64 cells to spread contention, and one exemplar slot per bucket
// carrying the trace ID of the newest observation that landed there.
type histogram struct {
	counts    [numBuckets + 1]atomic.Uint64 // one per bucket, plus +Inf
	sums      [histSumShards]atomic.Uint64  // float64 bit patterns
	n         atomic.Uint64
	exemplars [numBuckets + 1]atomic.Pointer[exemplar]
}

// numBuckets must equal len(latencyBuckets); array-sized so histograms embed flat.
const numBuckets = 16

// histSumShards spreads the float sum across cells so concurrent
// observers rarely CAS the same word. Power of two; shard choice keys
// off the bucket index, which already varies with the observation.
const histSumShards = 8

// exemplar links one histogram bucket to the trace that most recently
// landed in it, surfaced as an OpenMetrics exemplar on /metrics.
type exemplar struct {
	TraceID string
	Value   float64 // seconds
	Time    time.Time
}

func (h *histogram) observe(sec float64) { h.observeTraced(sec, "") }

// observeTraced records one observation, tagging the bucket's exemplar
// slot with the trace it came from (empty traceID leaves exemplars
// untouched).
func (h *histogram) observeTraced(sec float64, traceID string) {
	i := sort.SearchFloat64s(latencyBuckets, sec)
	h.counts[i].Add(1)
	h.n.Add(1)
	shard := &h.sums[i&(histSumShards-1)]
	for {
		old := shard.Load()
		if shard.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+sec)) {
			break
		}
	}
	if traceID != "" {
		h.exemplars[i].Store(&exemplar{TraceID: traceID, Value: sec, Time: time.Now()})
	}
}

// histSnapshot is one view of a histogram. Reads are atomic per field:
// a snapshot taken mid-observation may momentarily show n one ahead of
// the bucket totals, but counts never tear and totals never decrease.
type histSnapshot struct {
	Counts [numBuckets + 1]uint64
	Sum    float64
	N      uint64
}

func (h *histogram) snapshot() histSnapshot {
	var s histSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	for i := range h.sums {
		s.Sum += math.Float64frombits(h.sums[i].Load())
	}
	s.N = h.n.Load()
	return s
}

// exemplarView returns the per-bucket exemplars (nil = none yet).
func (h *histogram) exemplarView() [numBuckets + 1]*exemplar {
	var out [numBuckets + 1]*exemplar
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// endpointStats aggregates one endpoint's request metrics.
type endpointStats struct {
	mu       sync.Mutex
	byCode   map[int]uint64
	latency  histogram
	bytesIn  counter
	bytesOut counter
}

func (e *endpointStats) record(code int, in, out int64, dur time.Duration, traceID string) {
	e.mu.Lock()
	e.byCode[code]++
	e.mu.Unlock()
	e.latency.observeTraced(dur.Seconds(), traceID)
	if in > 0 {
		e.bytesIn.add(uint64(in))
	}
	if out > 0 {
		e.bytesOut.add(uint64(out))
	}
}

func (e *endpointStats) codes() map[int]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int]uint64, len(e.byCode))
	for k, v := range e.byCode {
		out[k] = v
	}
	return out
}

// tenantStats aggregates one tenant's request metrics. Cardinality is
// bounded: tenant IDs come from the config file plus the reserved
// "anon" and "internal" labels.
type tenantStats struct {
	mu       sync.Mutex
	byCode   map[int]uint64
	limited  map[string]uint64 // denials by reason: rate, quota, queue
	bytesIn  counter
	bytesOut counter
}

func (t *tenantStats) record(code int, in, out int64) {
	t.mu.Lock()
	t.byCode[code]++
	t.mu.Unlock()
	if in > 0 {
		t.bytesIn.add(uint64(in))
	}
	if out > 0 {
		t.bytesOut.add(uint64(out))
	}
}

func (t *tenantStats) codes() map[int]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int]uint64, len(t.byCode))
	for k, v := range t.byCode {
		out[k] = v
	}
	return out
}

func (t *tenantStats) limitedByReason() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.limited))
	for k, v := range t.limited {
		out[k] = v
	}
	return out
}

// metrics is the server's observability state, published at /metrics
// (Prometheus text or OpenMetrics, see expo.go).
type metrics struct {
	start time.Time

	mu        sync.Mutex
	endpoints map[string]*endpointStats
	tenants   map[string]*tenantStats

	shed     counter // 429s from saturated pools
	timeouts counter // requests that hit their deadline

	authFailures         counter // public requests rejected 401 (missing/unknown API key)
	internalAuthFailures counter // internal requests rejected 401 (unsigned/mis-signed)

	coalesced counter // compressions served by riding an in-flight fill

	// Warm-tier counters (only exported while a cluster is configured);
	// hits, errors and ring changes are read from the cluster's and the
	// cache's own stats.
	peerMisses counter // lookups that ended FetchMiss (one per lookup, not per replica)
	aePasses   counter // anti-entropy passes completed (startup + ring changes)

	// Stage histograms: one per span name, fed by the tracer's OnSpanEnd
	// hook, so every traced pipeline stage gets a duration distribution.
	stageMu sync.Mutex
	stages  map[string]*histogram
}

func newMetrics() *metrics {
	return &metrics{
		start:     time.Now(),
		endpoints: make(map[string]*endpointStats),
		tenants:   make(map[string]*tenantStats),
		stages:    make(map[string]*histogram),
	}
}

// observeStage records one completed span into its stage histogram;
// it is the tracer's OnSpanEnd hook and runs on every span, so the
// slow path is only the first sighting of a new stage name. The span's
// trace ID becomes the bucket's exemplar, linking every histogram
// spike back to a span tree in /debug/trace/recent.
func (m *metrics) observeStage(name string, d time.Duration, traceID string) {
	m.stageMu.Lock()
	h, ok := m.stages[name]
	if !ok {
		h = &histogram{}
		m.stages[name] = h
	}
	m.stageMu.Unlock()
	h.observeTraced(d.Seconds(), traceID)
}

// stageNames returns the observed stage names, sorted.
func (m *metrics) stageNames() []string {
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	names := make([]string, 0, len(m.stages))
	for n := range m.stages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stage returns the histogram for name (nil if never observed).
func (m *metrics) stage(name string) *histogram {
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	return m.stages[name]
}

func (m *metrics) endpoint(name string) *endpointStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.endpoints[name]
	if !ok {
		e = &endpointStats{byCode: make(map[int]uint64)}
		m.endpoints[name] = e
	}
	return e
}

func (m *metrics) tenant(id string) *tenantStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[id]
	if !ok {
		t = &tenantStats{byCode: make(map[int]uint64), limited: make(map[string]uint64)}
		m.tenants[id] = t
	}
	return t
}

// tenantLimited counts one denied request for the tenant, by reason
// ("rate", "quota" or "queue").
func (m *metrics) tenantLimited(id, reason string) {
	t := m.tenant(id)
	t.mu.Lock()
	t.limited[reason]++
	t.mu.Unlock()
}

func (m *metrics) tenantNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.tenants))
	for n := range m.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (m *metrics) endpointNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.endpoints))
	for n := range m.endpoints {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
