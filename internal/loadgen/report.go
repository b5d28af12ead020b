package loadgen

import (
	"fmt"
	"io"
	"sort"
)

// ReportSchema identifies the per-run report wire format. Bump only on
// incompatible change. v2: completed and throughput_rps count 2xx
// replies only, and slo_worst_state is gone.
const ReportSchema = "cpackbench/v2"

// RunConfig echoes the knobs a run was driven with.
type RunConfig struct {
	Target      string  `json:"target,omitempty"`
	QPS         float64 `json:"qps"`
	DurationSec float64 `json:"duration_s"`
	WarmupSec   float64 `json:"warmup_s"`
	Concurrency int     `json:"concurrency"`
}

// ServerDelta is the server-side /metrics movement across the run
// (after minus before, saturating at zero on counter reset).
type ServerDelta struct {
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	Shed        uint64  `json:"shed"`
	Coalesced   uint64  `json:"coalesced"`
	PeerHits    uint64  `json:"peer_hits"`
	PeerMisses  uint64  `json:"peer_misses"`
	// WarmRate is the fraction of cache lookups served without a fresh
	// compression: local hits plus peer-tier hits over all lookups. On a
	// standalone instance it equals HitRate; on a cluster it is the
	// replication tier's figure of merit (the churn scenario asserts a
	// floor on it).
	WarmRate float64 `json:"warm_rate"`
}

// Report is one scenario run's machine-readable result.
type Report struct {
	Schema   string    `json:"schema"`
	Scenario string    `json:"scenario"`
	Describe string    `json:"describe,omitempty"`
	Seed     int64     `json:"seed"`
	Config   RunConfig `json:"config"`

	// Sent counts every scheduled request (warmup included);
	// WarmupRequests of those landed in the warmup window. In the
	// measured window, Completed counts 2xx replies and TransportErrors
	// requests that drew no reply; ByOp breaks the window down as op ->
	// status code (or "error") -> count, so 429s and 5xx show there.
	Sent            int                          `json:"sent"`
	WarmupRequests  uint64                       `json:"warmup_requests"`
	Completed       uint64                       `json:"completed"`
	TransportErrors uint64                       `json:"transport_errors"`
	ByOp            map[string]map[string]uint64 `json:"by_op"`

	// ThroughputRPS is the measured-window goodput (2xx replies per
	// second); compare it to Config.QPS to see whether the server kept
	// up with the open loop.
	ThroughputRPS float64      `json:"throughput_rps"`
	Latency       LatencyStats `json:"latency"`

	// Server carries the /metrics deltas (nil when scraping was
	// unavailable).
	Server *ServerDelta `json:"server,omitempty"`

	// Tenants breaks the measured window down per tenant label (nil on
	// single-tenant scenarios), and Fairness is Jain's index over
	// weight-normalized per-tenant goodput: 1.0 means every tenant got
	// goodput exactly proportional to its weight, 1/n means one tenant
	// took everything.
	Tenants  map[string]*TenantReport `json:"tenants,omitempty"`
	Fairness float64                  `json:"fairness,omitempty"`
}

// TenantReport is one tenant's measured-window slice.
type TenantReport struct {
	Weight     int               `json:"weight"`
	Requests   uint64            `json:"requests"`
	ByStatus   map[string]uint64 `json:"by_status"`
	GoodputRPS float64           `json:"goodput_rps"`
	Latency    LatencyStats      `json:"latency"`
}

// Status429 counts this tenant's measured-window rate-limit rejections.
func (t *TenantReport) Status429() uint64 { return t.ByStatus["429"] }

// Status5xx counts measured-window responses with 5xx statuses.
func (r *Report) Status5xx() uint64 {
	var n uint64
	for _, codes := range r.ByOp {
		for code, c := range codes {
			if len(code) == 3 && code[0] == '5' {
				n += c
			}
		}
	}
	return n
}

// WriteText renders the human-readable run summary.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "scenario %s (seed %d): %s\n", r.Scenario, r.Seed, r.Describe)
	fmt.Fprintf(w, "  open loop %.0f req/s for %.1fs (+%.1fs warmup), concurrency %d\n",
		r.Config.QPS, r.Config.DurationSec, r.Config.WarmupSec, r.Config.Concurrency)
	fmt.Fprintf(w, "  %d sent, %d completed (2xx), %d transport errors, goodput %.1f req/s\n",
		r.Sent, r.Completed, r.TransportErrors, r.ThroughputRPS)
	ops := make([]string, 0, len(r.ByOp))
	for op := range r.ByOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(w, "  %-12s", op)
		codes := make([]string, 0, len(r.ByOp[op]))
		for c := range r.ByOp[op] {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "  %s×%d", c, r.ByOp[op][c])
		}
		fmt.Fprintln(w)
	}
	l := r.Latency
	fmt.Fprintf(w, "  latency (from intended send) p50 %.3fms  p90 %.3fms  p99 %.3fms  p99.9 %.3fms  max %.3fms\n",
		l.P50, l.P90, l.P99, l.P999, l.Max)
	if s := r.Server; s != nil {
		fmt.Fprintf(w, "  server: cache +%d hits / +%d misses (%.0f%% hit rate), %d shed, %d coalesced",
			s.CacheHits, s.CacheMisses, 100*s.HitRate, s.Shed, s.Coalesced)
		if s.PeerHits+s.PeerMisses > 0 {
			fmt.Fprintf(w, ", peer +%d hits / +%d misses (%.0f%% warm)",
				s.PeerHits, s.PeerMisses, 100*s.WarmRate)
		}
		fmt.Fprintln(w)
	}
	if len(r.Tenants) > 0 {
		names := make([]string, 0, len(r.Tenants))
		for n := range r.Tenants {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			tr := r.Tenants[n]
			fmt.Fprintf(w, "  tenant %-8s w=%d  %d reqs (%d limited)  goodput %.1f req/s  p50 %.3fms  p99 %.3fms\n",
				n, tr.Weight, tr.Requests, tr.Status429(), tr.GoodputRPS,
				tr.Latency.P50, tr.Latency.P99)
		}
		fmt.Fprintf(w, "  fairness (Jain, goodput/weight) %.3f\n", r.Fairness)
	}
}
