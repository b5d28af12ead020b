package server

import (
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"codepack/internal/peer"
	"codepack/internal/trace"
)

// spanByName indexes a trace's spans by name; every span name in a
// single compress-miss trace is unique, so collisions fail the test.
func spanByName(t *testing.T, tr trace.Trace) map[string]trace.SpanData {
	t.Helper()
	out := make(map[string]trace.SpanData, len(tr.Spans))
	for _, s := range tr.Spans {
		if _, dup := out[s.Name]; dup {
			t.Fatalf("duplicate span name %q in trace:\n%s", s.Name, tr.Tree())
		}
		out[s.Name] = s
	}
	return out
}

// lastTrace polls the server's ring for the newest trace through
// endpoint (the root span ends after the response is written, so the
// trace can land just after the client sees the reply).
func lastTrace(t *testing.T, s *Server, endpoint string) trace.Trace {
	t.Helper()
	waitFor(t, func() bool { return len(s.tracer.Recent(0, endpoint, 1)) > 0 })
	return s.tracer.Recent(0, endpoint, 1)[0]
}

// TestCompressMissSpanTree is the golden span tree: one cache-miss
// compression on a standalone server must produce every serving stage as
// a span with the documented parentage —
//
//	handler
//	  queue-wait
//	  resolve-image
//	  cache-lookup            outcome=miss
//	  fill
//	    cache-recheck         outcome=miss
//	    compress
//	      dict-build
//	      encode
//	      index-build
func TestCompressMissSpanTree(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/compress", CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}}).Body.Close()

	tr := lastTrace(t, s, "compress")
	spans := spanByName(t, tr)

	parentage := map[string]string{
		"handler":       "",
		"queue-wait":    "handler",
		"resolve-image": "handler",
		"cache-lookup":  "handler",
		"fill":          "handler",
		"cache-recheck": "fill",
		"compress":      "fill",
		"dict-build":    "compress",
		"encode":        "compress",
		"index-build":   "compress",
	}
	for name, wantParent := range parentage {
		sp, ok := spans[name]
		if !ok {
			t.Errorf("span %q missing from trace:\n%s", name, tr.Tree())
			continue
		}
		wantID := ""
		if wantParent != "" {
			wantID = spans[wantParent].ID
		}
		if sp.Parent != wantID {
			t.Errorf("span %q parented on %q, want %q:\n%s", name, sp.Parent, wantParent, tr.Tree())
		}
	}
	if tr.Spans[0].Name != "handler" {
		t.Errorf("root span is %q, want handler", tr.Spans[0].Name)
	}
	if tr.RemoteParent != "" {
		t.Errorf("standalone request has remote parent %q", tr.RemoteParent)
	}
	for _, probe := range []struct {
		span, attr string
		want       any
	}{
		{"cache-lookup", "outcome", "miss"},
		{"cache-recheck", "outcome", "miss"},
		{"handler", "status", http.StatusOK},
	} {
		if got := spans[probe.span].Attrs[probe.attr]; got != probe.want {
			t.Errorf("span %q attr %q = %v, want %v", probe.span, probe.attr, got, probe.want)
		}
	}
}

// TestSpanPropagatesAcrossPeerFetch stitches a cross-node trace: a miss
// on the non-owner fetches from the owner carrying X-Cpackd-Span, so the
// owner's peer_get trace shares the trace ID and is remote-parented on
// the fetcher's peer-replica span.
func TestSpanPropagatesAcrossPeerFetch(t *testing.T) {
	sa, sb, urlA, urlB := startPair(t, Config{}, Config{})
	ring := peer.NewRing([]string{urlA, urlB})
	im := imageOwnedBy(t, ring, urlA)

	// B misses, consults owner A (which also misses), compresses locally.
	compressImageOn(t, urlB, im)

	btr := lastTrace(t, sb, "compress")
	spans := spanByName(t, btr)
	fetch, ok := spans["peer-fetch"]
	if !ok {
		t.Fatalf("fetcher trace has no peer-fetch span:\n%s", btr.Tree())
	}
	if fetch.Attrs["owner"] != urlA || fetch.Attrs["outcome"] != "miss" {
		t.Errorf("peer-fetch attrs = %v, want owner=%s outcome=miss", fetch.Attrs, urlA)
	}
	// The walk opens one peer-replica span per replica tried (R=1 here),
	// carrying the breaker state; its one request is sent under it.
	replica, ok := spans["peer-replica"]
	if !ok {
		t.Fatalf("fetcher trace has no peer-replica span:\n%s", btr.Tree())
	}
	if replica.Parent != fetch.ID {
		t.Errorf("peer-replica parented on %q, want peer-fetch %q", replica.Parent, fetch.ID)
	}
	if _, ok := replica.Attrs["breaker"]; !ok {
		t.Errorf("peer-replica span missing breaker attr: %v", replica.Attrs)
	}
	if replica.Attrs["outcome"] != "miss" {
		t.Errorf("peer-replica outcome = %v, want miss", replica.Attrs["outcome"])
	}

	atr := lastTrace(t, sa, "peer_get")
	if atr.TraceID != btr.TraceID {
		t.Errorf("owner trace ID %q != fetcher trace ID %q", atr.TraceID, btr.TraceID)
	}
	if atr.RemoteParent != replica.ID {
		t.Errorf("owner remote parent %q, want the fetcher's replica span %q", atr.RemoteParent, replica.ID)
	}
	if atr.Spans[0].Parent != replica.ID {
		t.Errorf("owner root span parented on %q, want %q", atr.Spans[0].Parent, replica.ID)
	}
}

var stageLabelRE = regexp.MustCompile(`(?m)^cpackd_stage_duration_seconds_count\{stage="([^"]+)"\} ([0-9]+)$`)

// TestStageHistogramsRendered: one compression populates at least five
// distinct stage labels (the acceptance floor), every rendered count is
// non-zero, and the trace counter ticks.
func TestStageHistogramsRendered(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/compress", CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}}).Body.Close()

	var body string
	waitFor(t, func() bool {
		body = scrape(t, ts)
		return len(stageLabelRE.FindAllString(body, -1)) >= 5
	})
	stages := make(map[string]bool)
	for _, m := range stageLabelRE.FindAllStringSubmatch(body, -1) {
		stages[m[1]] = true
		if m[2] == "0" {
			t.Errorf("stage %q rendered with zero observations", m[1])
		}
	}
	for _, want := range []string{"handler", "cache-lookup", "compress", "encode", "queue-wait"} {
		if !stages[want] {
			t.Errorf("stage label %q missing; got %v", want, stages)
		}
	}
	if n := metricValue(t, body, "cpackd_traces_recorded_total"); n < 1 {
		t.Errorf("cpackd_traces_recorded_total = %v, want >= 1", n)
	}
}

// TestCacheGaugesTrackEntries pins the cache gauges the metrics audit
// found already present: entries and resident bytes move with the cache.
func TestCacheGaugesTrackEntries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if n := scrapeMetric(t, ts, "cpackd_cache_entries"); n != 0 {
		t.Fatalf("fresh cache reports %v entries", n)
	}
	resp := postJSON(t, ts.URL+"/v1/compress", CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}})
	out := decodeBody[CompressResponse](t, resp, http.StatusOK)
	if n := scrapeMetric(t, ts, "cpackd_cache_entries"); n != 1 {
		t.Errorf("cpackd_cache_entries = %v after one compression, want 1", n)
	}
	if b := scrapeMetric(t, ts, "cpackd_cache_bytes"); b <= 0 {
		t.Errorf("cpackd_cache_bytes = %v, want > 0", b)
	}
	_ = out
}

// TestSlowTraceLogged: requests slower than TraceSlow log their full
// span tree, so a slow request explains itself without a debug port.
func TestSlowTraceLogged(t *testing.T) {
	var buf syncBuffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	_, ts := newTestServer(t, Config{Logger: log, TraceSlow: time.Nanosecond})
	postJSON(t, ts.URL+"/v1/compress", CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}}).Body.Close()

	waitFor(t, func() bool { return strings.Contains(buf.String(), "slow trace") })
	got := buf.String()
	for _, want := range []string{"handler", "cache-lookup", "compress", "encode"} {
		if !strings.Contains(got, want) {
			t.Errorf("slow-trace log missing span %q:\n%s", want, got)
		}
	}
}

// TestTracingDisabled: a negative capacity turns the subsystem off — the
// server still serves, and the ring endpoint reports 404.
func TestTracingDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceCapacity: -1})
	if s.tracer != nil {
		t.Fatal("TraceCapacity -1 still built a tracer")
	}
	resp := postJSON(t, ts.URL+"/v1/compress", CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}})
	decodeBody[CompressResponse](t, resp, http.StatusOK)

	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace/recent", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/debug/trace/recent with tracing off returned %d, want 404", rec.Code)
	}
}
