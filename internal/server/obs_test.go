package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"codepack/internal/obs"
	"codepack/internal/trace"
)

// lintExposition parses a full /metrics body and enforces the rules a
// real scraper depends on: every family declares HELP then TYPE exactly
// once, samples sit under their family (no interleaving), series are
// unique, values parse, exemplars appear only on OpenMetrics bucket
// lines, and OpenMetrics bodies end with # EOF. It returns the exemplar
// trace IDs it saw.
func lintExposition(body string, om bool) ([]string, error) {
	lines := strings.Split(body, "\n")
	families := map[string]bool{}
	series := map[string]bool{}
	var exIDs []string
	curFam, curTyp, helpFam := "", "", ""
	sawEOF := false
	for i, line := range lines {
		lno := i + 1
		if line == "" {
			if i != len(lines)-1 {
				return nil, fmt.Errorf("line %d: blank line inside exposition", lno)
			}
			continue
		}
		if sawEOF {
			return nil, fmt.Errorf("line %d: content after # EOF", lno)
		}
		if strings.HasPrefix(line, "#") {
			switch {
			case line == "# EOF":
				if !om {
					return nil, fmt.Errorf("line %d: # EOF in classic format", lno)
				}
				sawEOF = true
			case strings.HasPrefix(line, "# HELP "):
				fam, help, ok := strings.Cut(line[len("# HELP "):], " ")
				if !ok || fam == "" || help == "" {
					return nil, fmt.Errorf("line %d: malformed HELP", lno)
				}
				if helpFam != "" {
					return nil, fmt.Errorf("line %d: HELP %s while HELP %s awaits its TYPE", lno, fam, helpFam)
				}
				helpFam = fam
			case strings.HasPrefix(line, "# TYPE "):
				parts := strings.Fields(line[len("# TYPE "):])
				if len(parts) != 2 {
					return nil, fmt.Errorf("line %d: malformed TYPE", lno)
				}
				fam, typ := parts[0], parts[1]
				switch typ {
				case "counter", "gauge", "histogram":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q", lno, typ)
				}
				if helpFam != fam {
					return nil, fmt.Errorf("line %d: TYPE %s not preceded by its HELP", lno, fam)
				}
				helpFam = ""
				if families[fam] {
					return nil, fmt.Errorf("line %d: duplicate family %s", lno, fam)
				}
				families[fam] = true
				curFam, curTyp = fam, typ
			default:
				return nil, fmt.Errorf("line %d: unexpected comment %q", lno, line)
			}
			continue
		}
		if helpFam != "" {
			return nil, fmt.Errorf("line %d: sample while HELP %s awaits its TYPE", lno, helpFam)
		}
		if curFam == "" {
			return nil, fmt.Errorf("line %d: sample before any family declaration", lno)
		}
		rest, exPart := line, ""
		if j := strings.Index(line, " # "); j >= 0 {
			rest, exPart = line[:j], line[j+3:]
		}
		var name, labels, value string
		if k := strings.IndexByte(rest, '{'); k >= 0 {
			end := strings.LastIndexByte(rest, '}')
			if end < k {
				return nil, fmt.Errorf("line %d: unterminated label set", lno)
			}
			name, labels, value = rest[:k], rest[k+1:end], strings.TrimSpace(rest[end+1:])
		} else {
			var ok bool
			name, value, ok = strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("line %d: sample without value", lno)
			}
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return nil, fmt.Errorf("line %d: bad sample value %q: %v", lno, value, err)
		}
		inFam := false
		switch curTyp {
		case "histogram":
			inFam = name == curFam+"_bucket" || name == curFam+"_sum" || name == curFam+"_count"
		case "counter":
			if om {
				inFam = name == curFam+"_total"
			} else {
				inFam = name == curFam
			}
		default:
			inFam = name == curFam
		}
		if !inFam {
			return nil, fmt.Errorf("line %d: sample %s outside family %s (interleaved or stray)", lno, name, curFam)
		}
		key := name + "{" + labels + "}"
		if series[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lno, key)
		}
		series[key] = true
		if exPart != "" {
			if !om {
				return nil, fmt.Errorf("line %d: exemplar in classic format", lno)
			}
			if !strings.HasSuffix(name, "_bucket") {
				return nil, fmt.Errorf("line %d: exemplar on non-bucket sample %s", lno, name)
			}
			id, err := parseExemplar(exPart)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lno, err)
			}
			exIDs = append(exIDs, id)
		}
	}
	if om && !sawEOF {
		return nil, fmt.Errorf("missing # EOF terminator")
	}
	if helpFam != "" {
		return nil, fmt.Errorf("trailing HELP %s without TYPE", helpFam)
	}
	return exIDs, nil
}

// parseExemplar checks `{trace_id="<id>"} <value> <ts>` and returns the id.
func parseExemplar(s string) (string, error) {
	const pre = `{trace_id="`
	if !strings.HasPrefix(s, pre) {
		return "", fmt.Errorf("malformed exemplar %q", s)
	}
	rest := s[len(pre):]
	end := strings.Index(rest, `"}`)
	if end <= 0 {
		return "", fmt.Errorf("malformed exemplar label set %q", s)
	}
	id := rest[:end]
	fields := strings.Fields(rest[end+2:])
	if len(fields) != 2 {
		return "", fmt.Errorf("exemplar %q: want value and timestamp", s)
	}
	for _, f := range fields {
		if _, err := strconv.ParseFloat(f, 64); err != nil {
			return "", fmt.Errorf("exemplar %q: bad number %q", s, f)
		}
	}
	return id, nil
}

// getBody fetches url with the given Accept header and returns the body.
func getBody(t *testing.T, url, accept string) (string, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp
}

// testSLOEngine builds a fast-ticking engine so burn-rate transitions
// land within test timescales instead of operational ones.
func testSLOEngine(t *testing.T, src string) *obs.Engine {
	t.Helper()
	snap, err := obs.ParseConfig(src, "test-slos")
	if err != nil {
		t.Fatal(err)
	}
	return obs.NewEngine(snap, obs.EngineConfig{
		EvalInterval: 25 * time.Millisecond,
		BucketWidth:  250 * time.Millisecond,
		FastShort:    2 * time.Second,
		FastLong:     10 * time.Second,
		SlowShort:    5 * time.Second,
		SlowLong:     20 * time.Second,
		Logger:       quietLogger(),
	})
}

// TestMetricsExpositionLint scrapes a busy server in both formats and
// runs the full lint: families well-formed and unique, samples grouped,
// exemplars only where OpenMetrics allows them.
func TestMetricsExpositionLint(t *testing.T) {
	cfg := Config{
		SLO:     testSLOEngine(t, "slo api target=99 latency=10s\n"),
		Profile: &obs.ProfilerConfig{Dir: t.TempDir(), Logger: quietLogger()},
	}
	_, ts := newTestServer(t, cfg)
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/compress", CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}})
		resp.Body.Close()
	}

	prom, resp := getBody(t, ts.URL+"/metrics", "")
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Errorf("classic content type = %q", got)
	}
	ids, err := lintExposition(prom, false)
	if err != nil {
		t.Fatalf("classic exposition: %v", err)
	}
	if len(ids) != 0 {
		t.Errorf("classic exposition carried %d exemplars", len(ids))
	}

	om, resp := getBody(t, ts.URL+"/metrics", "application/openmetrics-text; version=1.0.0")
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "application/openmetrics-text") {
		t.Errorf("openmetrics content type = %q", got)
	}
	ids, err = lintExposition(om, true)
	if err != nil {
		t.Fatalf("openmetrics exposition: %v", err)
	}
	if len(ids) == 0 {
		t.Error("openmetrics exposition carried no exemplars after traced requests")
	}
	for _, fam := range []string{"cpackd_slo_state", "cpackd_profile_retained", "cpackd_go_goroutines", "cpackd_trace_ring_capacity"} {
		if !strings.Contains(om, fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
}

// TestLintRejectsMalformed is the linter's own contract: the failure
// modes the exposition test guards against must actually be caught.
func TestLintRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, body string
		om         bool
		wantErr    string
	}{
		{"duplicate family", "# HELP a x\n# TYPE a gauge\na 1\n# HELP a x\n# TYPE a gauge\n", false, "duplicate family"},
		{"interleaved sample", "# HELP a x\n# TYPE a gauge\na 1\nb 2\n", false, "outside family"},
		{"duplicate series", "# HELP a x\n# TYPE a gauge\na{l=\"1\"} 1\na{l=\"1\"} 2\n", false, "duplicate series"},
		{"bad value", "# HELP a x\n# TYPE a gauge\na one\n", false, "bad sample value"},
		{"missing eof", "# HELP a x\n# TYPE a gauge\na 1\n", true, "missing # EOF"},
		{"exemplar in classic", "# HELP a x\n# TYPE a histogram\na_bucket{le=\"+Inf\"} 1 # {trace_id=\"t\"} 1 1\n", false, "exemplar in classic"},
		{"help without type", "# HELP a x\na 1\n", false, "awaits its TYPE"},
		{"counter sample name in om", "# HELP a x\n# TYPE a counter\na 1\n# EOF\n", true, "outside family"},
	}
	for _, tc := range cases {
		if _, err := lintExposition(tc.body, tc.om); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestExemplarResolvesInTraceRing asserts the end-to-end link: an
// exemplar trace ID scraped from /metrics must identify a trace the
// ring at /debug/trace/recent can still serve.
func TestExemplarResolvesInTraceRing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/compress", CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}})
		resp.Body.Close()
	}
	om, _ := getBody(t, ts.URL+"/metrics", "application/openmetrics-text")
	ids, err := lintExposition(om, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("no exemplars exposed")
	}
	body, _ := getBody(t, ts.URL+"/debug/trace/recent", "")
	var rec traceRecentResponse
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatal(err)
	}
	ring := map[string]bool{}
	for _, tr := range rec.Traces {
		ring[tr.TraceID] = true
	}
	resolved := 0
	for _, id := range ids {
		if ring[id] {
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatalf("none of %d exemplar trace IDs resolve among %d ring traces", len(ids), len(rec.Traces))
	}
}

// TestHistogramAtomicConsistency hammers the lock-free histogram from
// many goroutines while snapshots run concurrently (run under -race),
// then checks the final snapshot adds up exactly.
func TestHistogramAtomicConsistency(t *testing.T) {
	var h histogram
	const goroutines, each = 8, 5000
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var lastN uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := h.snapshot()
			var total uint64
			for _, c := range snap.Counts {
				total += c
			}
			if total > goroutines*each {
				t.Errorf("snapshot bucket total %d exceeds writes", total)
				return
			}
			if snap.N < lastN {
				t.Errorf("snapshot count went backwards: %d -> %d", lastN, snap.N)
				return
			}
			lastN = snap.N
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// 1.0 is exactly representable, so the sharded sum must come
				// out exact no matter how the CAS races interleave.
				h.observeTraced(1.0, fmt.Sprintf("trace-%d-%d", g, i))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	snap := h.snapshot()
	if snap.N != goroutines*each {
		t.Errorf("count = %d, want %d", snap.N, goroutines*each)
	}
	var total uint64
	for _, c := range snap.Counts {
		total += c
	}
	if total != goroutines*each {
		t.Errorf("bucket total = %d, want %d", total, goroutines*each)
	}
	if snap.Sum != float64(goroutines*each) {
		t.Errorf("sum = %g, want %d", snap.Sum, goroutines*each)
	}
	ex := h.exemplarView()
	found := false
	for _, e := range ex {
		if e != nil && strings.HasPrefix(e.TraceID, "trace-") {
			found = true
		}
	}
	if !found {
		t.Error("no exemplar retained after traced observations")
	}
}

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSLOSmoke is the full observability path on a two-member signed
// cluster: injected latency flips a tight SLO to page within the
// evaluation cadence, the page triggers a CPU profile into the on-disk
// ring, /metrics carries an exemplar that resolves in the trace ring,
// and /debug/cluster on either member aggregates both members' burn.
func TestSLOSmoke(t *testing.T) {
	const sloSrc = "slo api_latency target=99 latency=1ms window=1m\n"
	profDir := t.TempDir()
	cfgA := Config{
		Tenants: signedRegistry("smoke-key"),
		SLO:     testSLOEngine(t, sloSrc),
		Profile: &obs.ProfilerConfig{
			Dir:         profDir,
			CPUDuration: 50 * time.Millisecond,
			Cooldown:    time.Millisecond,
			Logger:      quietLogger(),
		},
	}
	cfgB := Config{
		Tenants: signedRegistry("smoke-key"),
		SLO:     testSLOEngine(t, sloSrc),
	}
	sa, _, urlA, urlB := startPair(t, cfgA, cfgB)

	// Every pooled job stalls 5ms — an order of magnitude over the 1ms
	// objective, so each request burns budget at 100x (>> the 14x page
	// threshold).
	sa.testHook = func(op string) { time.Sleep(5 * time.Millisecond) }
	for i := 0; i < 20; i++ {
		resp := postJSON(t, urlA+"/v1/compress", CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}})
		resp.Body.Close()
	}

	// The fast-burn alert must flip within the evaluation cadence.
	waitUntil(t, 5*time.Second, "SLO page state", func() bool {
		return sa.slo.WorstState() == obs.StatePage
	})
	body, _ := getBody(t, urlA+"/debug/slo", "")
	var slo sloDebugResponse
	if err := json.Unmarshal([]byte(body), &slo); err != nil {
		t.Fatal(err)
	}
	if slo.State != "page" {
		t.Errorf("/debug/slo state = %q, want page", slo.State)
	}
	if len(slo.Objectives) != 1 || slo.Objectives[0].Name != "api_latency" {
		t.Fatalf("/debug/slo objectives = %+v", slo.Objectives)
	}
	if slo.Objectives[0].Bad == 0 {
		t.Error("objective recorded no bad requests")
	}

	// The page triggers a profile capture set into the on-disk ring.
	waitUntil(t, 5*time.Second, "profile capture", func() bool {
		return sa.profiler.Stats().Captured >= 1
	})
	cpuProfiles, err := filepath.Glob(filepath.Join(profDir, "*.cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cpuProfiles) == 0 {
		t.Fatal("no CPU profile landed in the ring directory")
	}
	if fi, err := os.Stat(cpuProfiles[0]); err != nil || fi.Size() == 0 {
		t.Errorf("CPU profile unreadable or empty: %v", err)
	}

	// The OpenMetrics scrape must carry an exemplar that resolves in the
	// trace ring.
	om, _ := getBody(t, urlA+"/metrics", "application/openmetrics-text")
	ids, err := lintExposition(om, true)
	if err != nil {
		t.Fatalf("openmetrics exposition: %v", err)
	}
	if len(ids) == 0 {
		t.Fatal("no exemplars exposed")
	}
	recBody, _ := getBody(t, urlA+"/debug/trace/recent", "")
	var rec traceRecentResponse
	if err := json.Unmarshal([]byte(recBody), &rec); err != nil {
		t.Fatal(err)
	}
	ring := map[string]bool{}
	for _, tr := range rec.Traces {
		ring[tr.TraceID] = true
	}
	resolved := false
	for _, id := range ids {
		if ring[id] {
			resolved = true
		}
	}
	if !resolved {
		t.Error("no exemplar trace ID resolves in /debug/trace/recent")
	}
	if !strings.Contains(om, `cpackd_slo_state{slo="api_latency"} 2`) {
		t.Error("cpackd_slo_state gauge does not report page")
	}

	// /debug/cluster merges both members' signed health summaries.
	clBody, _ := getBody(t, urlA+"/debug/cluster", "")
	var cl clusterReport
	if err := json.Unmarshal([]byte(clBody), &cl); err != nil {
		t.Fatal(err)
	}
	if cl.Total != 2 || cl.Reachable != 2 {
		t.Fatalf("/debug/cluster total=%d reachable=%d, want 2/2: %s", cl.Total, cl.Reachable, clBody)
	}
	if cl.WorstState != "page" {
		t.Errorf("/debug/cluster worst_state = %q, want page", cl.WorstState)
	}
	withSLO := 0
	for _, n := range cl.Nodes {
		if n.Summary == nil {
			t.Errorf("member %s has no summary (err=%q)", n.URL, n.Err)
			continue
		}
		if len(n.Summary.Objectives) > 0 {
			withSLO++
		}
	}
	if withSLO != 2 {
		t.Errorf("%d members reported SLO burn, want 2", withSLO)
	}
	for _, u := range []string{urlA, urlB} {
		if !strings.Contains(clBody, u) {
			t.Errorf("/debug/cluster missing member %s", u)
		}
	}

	// The trace ring flag surface: /metrics reports the capacity.
	if got := metricValue(t, scrapeURL(t, urlA), "cpackd_trace_ring_capacity"); got != trace.DefaultCapacity {
		t.Errorf("cpackd_trace_ring_capacity = %v, want %d", got, trace.DefaultCapacity)
	}
}
