package loadgen

import (
	"context"
	"fmt"
	"iter"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubScenario yields tiny constant requests without touching the corpus
// generator, keeping runner tests fast. A non-empty tenant labels every
// request with it.
type stubScenario struct{ op, tenant string }

func (stubScenario) Name() string     { return "stub" }
func (stubScenario) Describe() string { return "constant stream for tests" }

func (s stubScenario) Requests(seed int64) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		for i := 0; ; i++ {
			if !yield(Request{Op: s.op, Key: fmt.Sprintf("k%d", i%4), Body: []byte(`{}`), Tenant: s.tenant}) {
				return
			}
		}
	}
}

// stallExec services the first call slowly and the rest instantly, the
// canonical coordinated-omission trap: a closed-loop, measured-from-send
// harness would report near-zero latency for everything but request one.
type stallExec struct {
	stall time.Duration
	calls atomic.Int64
}

func (e *stallExec) Do(ctx context.Context, req Request) (int, error) {
	if e.calls.Add(1) == 1 {
		time.Sleep(e.stall)
	}
	return 200, nil
}

// TestRunCoordinatedOmission: with one worker and a 100ms server stall,
// requests scheduled during the stall must be charged their queueing
// delay from intended send time. ~20 arrivals land inside the stall at
// 5ms spacing, so the median measured latency must be tens of ms even
// though every post-stall request is serviced instantly.
func TestRunCoordinatedOmission(t *testing.T) {
	const stall = 100 * time.Millisecond
	exec := &stallExec{stall: stall}
	rep, err := Run(context.Background(), Options{
		Scenario:    stubScenario{op: "compress"},
		Executor:    exec,
		QPS:         200,
		Duration:    250 * time.Millisecond,
		Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
	lat := rep.Latency
	if lat.Max < float64(stall/time.Millisecond)*0.9 {
		t.Fatalf("max latency %.1fms does not reflect the %.0fms stall",
			lat.Max, float64(stall/time.Millisecond))
	}
	// At least a third of the schedule fell inside the stall window, each
	// charged its decaying share of it; the p90 of measured-from-intended
	// latencies must therefore be far above per-request service time (~0).
	if lat.P90 < 10 {
		t.Fatalf("p90 %.3fms too low: queueing delay was coordinated-omitted", lat.P90)
	}
}

// TestRunOpenLoopSchedule: the arrival count follows QPS*duration, not
// server speed, and warmup requests stay out of the measured stats.
func TestRunOpenLoopSchedule(t *testing.T) {
	var served atomic.Int64
	exec := execFunc(func(ctx context.Context, req Request) (int, error) {
		served.Add(1)
		return 200, nil
	})
	rep, err := Run(context.Background(), Options{
		Scenario:    stubScenario{op: "compress"},
		Executor:    exec,
		QPS:         500,
		Duration:    200 * time.Millisecond,
		Warmup:      100 * time.Millisecond,
		Concurrency: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 150 // (0.1s + 0.2s) * 500
	if rep.Sent < want*8/10 || rep.Sent > want {
		t.Fatalf("sent %d requests, want ~%d", rep.Sent, want)
	}
	if rep.WarmupRequests == 0 {
		t.Fatal("no requests attributed to warmup")
	}
	if got := rep.WarmupRequests + rep.Completed + rep.TransportErrors; got != uint64(rep.Sent) {
		t.Fatalf("request accounting leaks: %d warmup + %d completed + %d errors != %d sent",
			rep.WarmupRequests, rep.Completed, rep.TransportErrors, rep.Sent)
	}
	if rep.Latency.N != rep.Completed+rep.TransportErrors {
		t.Fatalf("latency samples %d != measured requests %d", rep.Latency.N, rep.Completed)
	}
	if rep.ThroughputRPS <= 0 {
		t.Fatal("no throughput reported")
	}
	if rep.ByOp["compress"]["200"] != rep.Completed {
		t.Fatalf("by_op accounting: %v", rep.ByOp)
	}
}

type execFunc func(ctx context.Context, req Request) (int, error)

func (f execFunc) Do(ctx context.Context, req Request) (int, error) { return f(ctx, req) }

// slowStartScenario stalls before its first request, the way a scenario
// that builds its corpus inside the iterator does.
type slowStartScenario struct {
	stubScenario
	setup time.Duration
}

func (s slowStartScenario) Requests(seed int64) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		time.Sleep(s.setup)
		s.stubScenario.Requests(seed)(yield)
	}
}

// TestRunGeneratesScheduleBeforeClock: a scenario's setup time must not
// be charged to the first requests' latency. With an instant executor,
// a 200ms stall before the first yield would otherwise show up as a
// 200ms max latency.
func TestRunGeneratesScheduleBeforeClock(t *testing.T) {
	exec := execFunc(func(ctx context.Context, req Request) (int, error) { return 200, nil })
	rep, err := Run(context.Background(), Options{
		Scenario:    slowStartScenario{stubScenario: stubScenario{op: "compress"}, setup: 200 * time.Millisecond},
		Executor:    exec,
		QPS:         200,
		Duration:    100 * time.Millisecond,
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Latency.Max >= 100 {
		t.Fatalf("max latency %.1fms: scenario setup was charged to the requests", rep.Latency.Max)
	}
}

// TestRunRecordsErrorsAndStatuses: non-2xx statuses and transport errors
// are partitioned correctly, and only 2xx replies count as completed and
// as throughput (goodput), so a server answering 429 cannot look busy.
func TestRunRecordsErrorsAndStatuses(t *testing.T) {
	var n atomic.Int64
	exec := execFunc(func(ctx context.Context, req Request) (int, error) {
		switch n.Add(1) % 3 {
		case 0:
			return 0, fmt.Errorf("conn refused")
		case 1:
			return 429, nil
		default:
			return 200, nil
		}
	})
	rep, err := Run(context.Background(), Options{
		Scenario:    stubScenario{op: "compress", tenant: "t"},
		Executor:    exec,
		QPS:         300,
		Duration:    150 * time.Millisecond,
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransportErrors == 0 {
		t.Fatal("transport errors not counted")
	}
	codes := rep.ByOp["compress"]
	if codes["429"] == 0 || codes["200"] == 0 || codes["error"] == 0 {
		t.Fatalf("status partition incomplete: %v", codes)
	}
	if rep.Completed != codes["200"] || rep.TransportErrors != codes["error"] {
		t.Fatalf("completed=%d errors=%d, want the 2xx and error counts of %v",
			rep.Completed, rep.TransportErrors, codes)
	}
	// The tenant section divides the same 2xx count by the same window.
	tr := rep.Tenants["t"]
	if tr == nil || tr.ByStatus["200"] != rep.Completed {
		t.Fatalf("tenant section %+v does not match completed=%d", tr, rep.Completed)
	}
	if rep.ThroughputRPS <= 0 || rep.ThroughputRPS != tr.GoodputRPS {
		t.Fatalf("throughput %.3f req/s, want the 2xx goodput %.3f req/s",
			rep.ThroughputRPS, tr.GoodputRPS)
	}
}

// fakeMetrics serves canned cumulative stats.
type fakeMetrics struct {
	mu    sync.Mutex
	stats []ServerStats
}

func (f *fakeMetrics) ServerStats(ctx context.Context) (ServerStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats[0]
	if len(f.stats) > 1 {
		f.stats = f.stats[1:]
	}
	return st, nil
}

func TestRunServerDeltas(t *testing.T) {
	exec := execFunc(func(ctx context.Context, req Request) (int, error) { return 200, nil })
	rep, err := Run(context.Background(), Options{
		Scenario: stubScenario{op: "compress"},
		Executor: exec,
		Metrics: &fakeMetrics{stats: []ServerStats{
			{CacheHits: 10, CacheMisses: 5, Coalesced: 1},
			{CacheHits: 110, CacheMisses: 30, Coalesced: 4, Shed: 2},
		}},
		QPS:      200,
		Duration: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Server
	if s == nil {
		t.Fatal("server delta missing")
	}
	if s.CacheHits != 100 || s.CacheMisses != 25 || s.Coalesced != 3 || s.Shed != 2 {
		t.Fatalf("bad deltas: %+v", s)
	}
	if want := 100.0 / 125.0; s.HitRate < want-1e-9 || s.HitRate > want+1e-9 {
		t.Fatalf("hit rate %.3f, want %.3f", s.HitRate, want)
	}
}

func TestRunValidates(t *testing.T) {
	exec := execFunc(func(ctx context.Context, req Request) (int, error) { return 200, nil })
	bad := []Options{
		{Executor: exec, QPS: 100, Duration: time.Second},                             // no scenario
		{Scenario: stubScenario{}, QPS: 100, Duration: time.Second},                   // no executor
		{Scenario: stubScenario{}, Executor: exec, Duration: time.Second},             // no qps
		{Scenario: stubScenario{}, Executor: exec, QPS: 100},                          // no duration
		{Scenario: stubScenario{}, Executor: exec, QPS: 100, Duration: -1},            // negative
		{Scenario: stubScenario{}, Executor: exec, QPS: 100, Duration: 1, Warmup: -1}, // negative
		{Scenario: stubScenario{}, Executor: exec, QPS: 100, Duration: 1, Concurrency: -1},
	}
	for i, o := range bad {
		if _, err := Run(context.Background(), o); err == nil {
			t.Fatalf("options %d accepted: %+v", i, o)
		}
	}
}

func TestParseServerStats(t *testing.T) {
	text := `# HELP cpackd_cache_hits_total Content-addressed cache hits.
# TYPE cpackd_cache_hits_total counter
cpackd_cache_hits_total 42
cpackd_cache_misses_total 7
cpackd_requests_total{endpoint="compress",code="200"} 49
cpackd_requests_shed_total 3
cpackd_compress_coalesced_total 5
cpackd_peer_hits_total 2
cpackd_peer_misses_total 1
cpackd_peer_members 3
cpackd_slo_state{slo="compress"} 2
`
	st, err := parseServerStats(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := ServerStats{CacheHits: 42, CacheMisses: 7, Shed: 3, Coalesced: 5, PeerHits: 2, PeerMisses: 1, PeerMembers: 3}
	if st != want {
		t.Fatalf("parsed %+v, want %+v", st, want)
	}
}
