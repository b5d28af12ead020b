package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Options parameterize one run.
type Options struct {
	// Scenario generates the request stream. Required.
	Scenario Scenario
	// Executor performs requests. Required.
	Executor Executor
	// Metrics, when non-nil, is scraped before and after the run; the
	// report then carries the deltas. A scrape error downgrades to a
	// missing server section, it never fails the run.
	Metrics MetricsSource

	// Seed replays a specific request stream (same seed = same stream).
	Seed int64
	// QPS is the open-loop arrival rate. Required (> 0).
	QPS float64
	// Duration is the measured window. Required (> 0).
	Duration time.Duration
	// Warmup runs ahead of the measured window: its requests are sent
	// and counted separately but excluded from latency and throughput.
	Warmup time.Duration
	// Concurrency bounds in-flight requests (0 = 16). When every worker
	// is busy, arrivals queue — and their latency keeps accruing from
	// the intended send time, which is the coordinated-omission fix.
	Concurrency int
	// Target labels the report (e.g. the base URL).
	Target string
}

func (o Options) validate() error {
	switch {
	case o.Scenario == nil:
		return errors.New("loadgen: Options.Scenario is required")
	case o.Executor == nil:
		return errors.New("loadgen: Options.Executor is required")
	case o.QPS <= 0:
		return fmt.Errorf("loadgen: QPS must be positive, got %g", o.QPS)
	case o.Duration <= 0:
		return fmt.Errorf("loadgen: Duration must be positive, got %v", o.Duration)
	case o.Warmup < 0:
		return fmt.Errorf("loadgen: Warmup must be non-negative, got %v", o.Warmup)
	case o.Concurrency < 0:
		return fmt.Errorf("loadgen: Concurrency must be non-negative, got %d", o.Concurrency)
	}
	return nil
}

// job is one scheduled request: the payload plus the instant the open
// loop intended to send it.
type job struct {
	req      Request
	intended time.Time
}

// statusCounts aggregates op -> status -> count. Transport errors count
// under the pseudo-status "error".
type statusCounts struct {
	mu   sync.Mutex
	byOp map[string]map[string]uint64
}

func newStatusCounts() *statusCounts {
	return &statusCounts{byOp: make(map[string]map[string]uint64)}
}

func (s *statusCounts) record(op, status string) {
	s.mu.Lock()
	m := s.byOp[op]
	if m == nil {
		m = make(map[string]uint64)
		s.byOp[op] = m
	}
	m[status]++
	s.mu.Unlock()
}

func (s *statusCounts) snapshot() map[string]map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]map[string]uint64, len(s.byOp))
	for op, m := range s.byOp {
		c := make(map[string]uint64, len(m))
		for k, v := range m {
			c[k] = v
		}
		out[op] = c
	}
	return out
}

// tenantTracker aggregates the measured window per tenant label. Only
// engaged when the scenario emits tenant-labelled requests.
type tenantTracker struct {
	mu   sync.Mutex
	recs map[string]*Recorder
	by   map[string]map[string]uint64 // tenant -> status -> count
	good map[string]uint64            // tenant -> 2xx count
}

func newTenantTracker() *tenantTracker {
	return &tenantTracker{
		recs: make(map[string]*Recorder),
		by:   make(map[string]map[string]uint64),
		good: make(map[string]uint64),
	}
}

func (t *tenantTracker) record(tenant, status string, ok2xx bool, lat time.Duration) {
	t.mu.Lock()
	rec := t.recs[tenant]
	if rec == nil {
		rec = NewRecorder()
		t.recs[tenant] = rec
		t.by[tenant] = make(map[string]uint64)
	}
	t.by[tenant][status]++
	if ok2xx {
		t.good[tenant]++
	}
	t.mu.Unlock()
	rec.Observe(lat)
}

// report assembles the per-tenant section plus Jain's fairness index
// over weight-normalized goodput. Specs supply weights (absent tenants
// default to weight 1).
func (t *tenantTracker) report(specs map[string]TenantSpec, window time.Duration) (map[string]*TenantReport, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.recs) == 0 {
		return nil, 0
	}
	out := make(map[string]*TenantReport, len(t.recs))
	var sum, sumSq float64
	for name, rec := range t.recs {
		weight := 1
		if sp, ok := specs[name]; ok && sp.Weight > 0 {
			weight = sp.Weight
		}
		var sent uint64
		for _, n := range t.by[name] {
			sent += n
		}
		good := float64(t.good[name]) / window.Seconds()
		out[name] = &TenantReport{
			Weight:     weight,
			Requests:   sent,
			ByStatus:   t.by[name],
			GoodputRPS: good,
			Latency:    rec.Snapshot(),
		}
		x := good / float64(weight)
		sum += x
		sumSq += x * x
	}
	fairness := 0.0
	if n := float64(len(out)); sumSq > 0 {
		fairness = sum * sum / (n * sumSq) // Jain's index: 1 = perfectly fair
	}
	return out, fairness
}

// Run drives one scenario open loop and returns its report. Only 2xx
// replies count as completed and as throughput; a 429 or 5xx is an
// outcome, visible per status code in ByOp and per tenant.
//
// The whole request stream is generated before the clock starts, so a
// scenario's setup (building its corpus) never lands in the first
// requests' latency. Arrival i's intended send time is start + i/QPS,
// fixed up front; the scheduler sleeps until each instant and enqueues
// the request whether or not a worker is free. Workers record latency
// as completion minus *intended* time, so server stalls surface as the
// queueing delay a schedule-faithful client would have seen (no
// coordinated omission).
// The jobs channel is sized for the whole schedule, so the scheduler
// itself never blocks on a slow server.
func Run(ctx context.Context, o Options) (*Report, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.Concurrency == 0 {
		o.Concurrency = 16
	}

	interval := time.Duration(float64(time.Second) / o.QPS)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	total := int(float64(o.Warmup+o.Duration) / float64(interval))
	if total < 1 {
		total = 1
	}
	reqs := make([]Request, 0, total)
	for req := range o.Scenario.Requests(o.Seed) {
		reqs = append(reqs, req)
		if len(reqs) == total {
			break
		}
	}

	var before ServerStats
	haveMetrics := false
	if o.Metrics != nil {
		if st, err := o.Metrics.ServerStats(ctx); err == nil {
			before, haveMetrics = st, true
		}
	}

	rec := NewRecorder()
	measured := newStatusCounts()
	warmup := newStatusCounts()
	tenants := newTenantTracker()
	var errorsN, completedN, warmupN atomic.Uint64

	jobs := make(chan job, total)
	var wg sync.WaitGroup
	start := time.Now()
	warmEnd := start.Add(o.Warmup)
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				status, err := o.Executor.Do(ctx, j.req)
				done := time.Now()
				inWarmup := j.intended.Before(warmEnd)
				label := "error"
				if err == nil {
					label = fmt.Sprintf("%d", status)
				}
				if inWarmup {
					warmup.record(j.req.Op, label)
					warmupN.Add(1)
					continue
				}
				measured.record(j.req.Op, label)
				ok := err == nil && status >= 200 && status < 300
				if err != nil {
					errorsN.Add(1)
				} else if ok {
					completedN.Add(1)
				}
				lat := done.Sub(j.intended)
				rec.Observe(lat)
				if j.req.Tenant != "" {
					tenants.record(j.req.Tenant, label, ok, lat)
				}
			}
		}()
	}

	sent := 0
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
schedule:
	for i, req := range reqs {
		intended := start.Add(time.Duration(i) * interval)
		if d := time.Until(intended); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				break schedule
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break schedule
		}
		jobs <- job{req: req, intended: intended}
		sent++
	}
	close(jobs)
	wg.Wait()
	end := time.Now()

	measuredWindow := end.Sub(warmEnd)
	if measuredWindow <= 0 {
		measuredWindow = time.Nanosecond
	}

	rep := &Report{
		Schema:   ReportSchema,
		Scenario: o.Scenario.Name(),
		Describe: o.Scenario.Describe(),
		Seed:     o.Seed,
		Config: RunConfig{
			Target:      o.Target,
			QPS:         o.QPS,
			DurationSec: o.Duration.Seconds(),
			WarmupSec:   o.Warmup.Seconds(),
			Concurrency: o.Concurrency,
		},
		Sent:            sent,
		WarmupRequests:  warmupN.Load(),
		Completed:       completedN.Load(),
		TransportErrors: errorsN.Load(),
		ByOp:            measured.snapshot(),
		ThroughputRPS:   float64(completedN.Load()) / measuredWindow.Seconds(),
		Latency:         rec.Snapshot(),
	}
	var specs map[string]TenantSpec
	if ts, ok := o.Scenario.(TenantScenario); ok {
		specs = ts.Tenants()
	}
	rep.Tenants, rep.Fairness = tenants.report(specs, measuredWindow)
	if haveMetrics {
		if after, err := o.Metrics.ServerStats(ctx); err == nil {
			rep.Server = diffServerStats(before, after)
		}
	}
	if ctx.Err() != nil && sent == 0 {
		return rep, ctx.Err()
	}
	return rep, nil
}

// diffServerStats turns two cumulative scrapes into a report delta.
func diffServerStats(before, after ServerStats) *ServerDelta {
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0 // counter reset (server restarted mid-run)
		}
		return a - b
	}
	d := &ServerDelta{
		CacheHits:   sub(after.CacheHits, before.CacheHits),
		CacheMisses: sub(after.CacheMisses, before.CacheMisses),
		Shed:        sub(after.Shed, before.Shed),
		Coalesced:   sub(after.Coalesced, before.Coalesced),
		PeerHits:    sub(after.PeerHits, before.PeerHits),
		PeerMisses:  sub(after.PeerMisses, before.PeerMisses),
	}
	if lookups := d.CacheHits + d.CacheMisses; lookups > 0 {
		d.HitRate = float64(d.CacheHits) / float64(lookups)
		warm := d.CacheHits + d.PeerHits
		if warm > lookups {
			warm = lookups // peer hits can race the lookup counters slightly
		}
		d.WarmRate = float64(warm) / float64(lookups)
	}
	return d
}
