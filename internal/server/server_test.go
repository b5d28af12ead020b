package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codepack"
)

const testAsm = `
main:
	li   $s0, 50
	li   $s1, 0
loop:
	addu $s1, $s1, $s0
	addiu $s0, $s0, -1
	bgtz $s0, loop
	li   $v0, 10
	syscall
`

// quietLogger keeps test output readable.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// postCode is postJSON for goroutines: no t.Fatal, returns the status
// code (-1 on transport error) and drains the body.
func postCode(url string, body any) int {
	b, err := json.Marshal(body)
	if err != nil {
		return -1
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return -1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func decodeBody[T any](t *testing.T, resp *http.Response, wantCode int) T {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("status %d, want %d (body: %s)", resp.StatusCode, wantCode, raw)
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %T: %v (body: %s)", v, err, raw)
	}
	return v
}

func testImageB64(t *testing.T) string {
	t.Helper()
	im, err := codepack.Assemble("test", testAsm)
	if err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(im.Marshal())
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	imgB64 := testImageB64(t)

	cResp := decodeBody[CompressResponse](t, postJSON(t, ts.URL+"/v1/compress",
		CompressRequest{ProgramRef: ProgramRef{ImageB64: imgB64}}), http.StatusOK)
	if cResp.Cached {
		t.Error("first compression reported cached")
	}
	// A toy program is dictionary-dominated, so the ratio can exceed 1;
	// it just has to be a sane positive number.
	if cResp.Ratio <= 0 || cResp.Ratio >= 5 {
		t.Errorf("implausible ratio %v", cResp.Ratio)
	}
	if len(cResp.Digest) != 64 {
		t.Errorf("bad digest %q", cResp.Digest)
	}

	dResp := decodeBody[DecompressResponse](t, postJSON(t, ts.URL+"/v1/decompress",
		DecompressRequest{CompressedB64: cResp.CompressedB64}), http.StatusOK)

	raw, err := base64.StdEncoding.DecodeString(dResp.ImageB64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codepack.UnmarshalImage(raw)
	if err != nil {
		t.Fatal(err)
	}
	origRaw, _ := base64.StdEncoding.DecodeString(imgB64)
	orig, err := codepack.UnmarshalImage(origRaw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Text) != len(orig.Text) {
		t.Fatalf("round trip text length %d, want %d", len(got.Text), len(orig.Text))
	}
	for i := range got.Text {
		if got.Text[i] != orig.Text[i] {
			t.Fatalf("round trip mismatch at instruction %d", i)
		}
	}
}

func TestCompressCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := CompressRequest{ProgramRef: ProgramRef{ImageB64: testImageB64(t)}}

	first := decodeBody[CompressResponse](t, postJSON(t, ts.URL+"/v1/compress", req), http.StatusOK)
	second := decodeBody[CompressResponse](t, postJSON(t, ts.URL+"/v1/compress", req), http.StatusOK)
	if first.Cached {
		t.Error("first request reported cached")
	}
	if !second.Cached {
		t.Error("repeat request not served from cache")
	}
	if first.Digest != second.Digest {
		t.Errorf("digest changed across requests: %q vs %q", first.Digest, second.Digest)
	}
	cs := s.cache.stats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache stats hits=%d misses=%d, want 1/1", cs.Hits, cs.Misses)
	}

	// The hit must be visible in /metrics too (acceptance criterion).
	if got := scrapeMetric(t, ts, "cpackd_cache_hits_total"); got != 1 {
		t.Errorf("cpackd_cache_hits_total = %v, want 1", got)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := decodeBody[VerifyResponse](t, postJSON(t, ts.URL+"/v1/verify",
		VerifyRequest{ProgramRef: ProgramRef{Asm: testAsm}}), http.StatusOK)
	if !resp.OK {
		t.Error("verify reported not OK")
	}
	if resp.Instructions == 0 {
		t.Error("verify reported zero instructions")
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{BenchMaxInstr: 50_000})
	resp := decodeBody[SimulateResponse](t, postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{
			ProgramRef: ProgramRef{Benchmark: "pegwit"},
			Arch:       "4-issue",
			Model:      "optimized",
			MaxInstr:   50_000,
		}), http.StatusOK)
	if resp.Instructions == 0 || resp.Cycles == 0 {
		t.Fatalf("empty simulation result: %+v", resp)
	}
	if resp.IPC <= 0 {
		t.Errorf("IPC %v, want > 0", resp.IPC)
	}
	if resp.Ratio <= 0 {
		t.Errorf("compressed run should report a ratio, got %v", resp.Ratio)
	}
}

func TestBenchEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{BenchMaxInstr: 50_000})

	list := decodeBody[BenchListResponse](t, mustGet(t, ts.URL+"/v1/bench"), http.StatusOK)
	if len(list.Benchmarks) != 6 {
		t.Fatalf("got %d benchmarks, want 6", len(list.Benchmarks))
	}

	info := decodeBody[BenchResponse](t, mustGet(t, ts.URL+"/v1/bench/pegwit"), http.StatusOK)
	if info.Name != "pegwit" || info.TextBytes == 0 || info.Ratio <= 0 {
		t.Errorf("implausible bench info: %+v", info)
	}

	decodeBody[map[string]string](t, mustGet(t, ts.URL+"/v1/bench/nosuch"), http.StatusNotFound)
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed json", "/v1/compress", "{", http.StatusBadRequest},
		{"no program", "/v1/compress", "{}", http.StatusBadRequest},
		{"two programs", "/v1/compress", `{"benchmark":"cc1","asm":"x"}`, http.StatusBadRequest},
		{"bad base64", "/v1/decompress", `{"compressed_b64":"!!!"}`, http.StatusBadRequest},
		{"bad arch", "/v1/simulate", `{"asm":"main:\n\tsyscall\n","arch":"9-issue"}`, http.StatusBadRequest},
		{"bad model", "/v1/simulate", `{"asm":"main:\n\tsyscall\n","model":"warp"}`, http.StatusBadRequest},
		{"bad asm", "/v1/compress", `{"asm":"not an instruction"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				body, _ := io.ReadAll(resp.Body)
				t.Errorf("status %d, want %d (body: %s)", resp.StatusCode, tc.want, body)
			}
		})
	}
}

// TestSaturatedPoolSheds verifies the load-shedding contract: with one
// heavy worker and a queue of one, a third concurrent simulate gets 429
// with Retry-After rather than queueing — while light traffic still flows.
func TestSaturatedPoolSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{HeavyWorkers: 1, HeavyQueue: 1, BenchMaxInstr: 10_000})

	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	t.Cleanup(unblock) // runs before the server cleanup (LIFO)

	started := make(chan struct{}, 8)
	s.testHook = func(op string) {
		if op == "simulate" {
			started <- struct{}{}
			<-block
		}
	}

	simBody := SimulateRequest{ProgramRef: ProgramRef{Asm: testAsm}, MaxInstr: 1000}
	codes := make(chan int, 2)
	post := func() { codes <- postCode(ts.URL+"/v1/simulate", simBody) }
	// Send the second job only once the first runs on the single worker,
	// so it occupies the queue slot of capacity 1. Sent together, both
	// can arrive before the worker dequeues the first, and the second
	// is shed instead.
	go post()
	<-started
	go post()
	waitFor(t, func() bool { return s.heavy.depth() == 1 })

	resp := postJSON(t, ts.URL+"/v1/simulate", simBody)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated pool returned %d, want 429 (body: %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// Light traffic must still flow while the heavy pool is wedged.
	cResp := decodeBody[CompressResponse](t, postJSON(t, ts.URL+"/v1/compress",
		CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}}), http.StatusOK)
	if cResp.Digest == "" {
		t.Error("compress failed during heavy saturation")
	}

	unblock()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("blocked request finished with %d, want 200", code)
		}
	}
	if got := scrapeMetric(t, ts, "cpackd_requests_shed_total"); got < 1 {
		t.Errorf("cpackd_requests_shed_total = %v, want >= 1", got)
	}
}

// TestMetricsAdvance verifies request counters and histograms move.
func TestMetricsAdvance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}}
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/compress", req).Body.Close()
	}
	body := scrape(t, ts)
	if got := metricValue(t, body, `cpackd_requests_total{endpoint="compress",code="200"}`); got != 3 {
		t.Errorf("compress 200s = %v, want 3", got)
	}
	if got := metricValue(t, body, `cpackd_request_duration_seconds_count{endpoint="compress"}`); got != 3 {
		t.Errorf("latency observations = %v, want 3", got)
	}
	if got := metricValue(t, body, `cpackd_cache_misses_total`); got != 1 {
		t.Errorf("cache misses = %v, want 1", got)
	}
	if got := metricValue(t, body, `cpackd_cache_hits_total`); got != 2 {
		t.Errorf("cache hits = %v, want 2", got)
	}
}

// TestPooledPanicAnswers500: a panic in pooled work answers its request
// 500 instead of ending the process, and the only light worker goes on
// serving the next request.
func TestPooledPanicAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{LightWorkers: 1})
	var panicked atomic.Bool
	s.testHook = func(op string) {
		if op == "compress" && panicked.CompareAndSwap(false, true) {
			panic("injected")
		}
	}
	req := CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}}
	got := decodeBody[errorResponse](t, postJSON(t, ts.URL+"/v1/compress", req), http.StatusInternalServerError)
	if got.Error != "internal error" {
		t.Errorf("panic answered %q, want \"internal error\"", got.Error)
	}
	decodeBody[CompressResponse](t, postJSON(t, ts.URL+"/v1/compress", req), http.StatusOK)
	if got := scrapeMetric(t, ts, `cpackd_requests_total{endpoint="compress",code="500"}`); got != 1 {
		t.Errorf("compress 500s = %v, want 1", got)
	}
}

// TestGracefulShutdownDrains verifies Close waits for admitted work: a
// request blocked inside a worker completes with 200 while Close is
// underway, and Close returns only after it finishes.
func TestGracefulShutdownDrains(t *testing.T) {
	s, err := New(Config{Logger: quietLogger(), BenchMaxInstr: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	defer unblock()

	started := make(chan struct{}, 1)
	s.testHook = func(op string) {
		if op == "compress" {
			started <- struct{}{}
			<-block
		}
	}

	codeCh := make(chan int, 1)
	go func() {
		codeCh <- postCode(ts.URL+"/v1/compress",
			CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}})
	}()
	<-started // the job is on a worker

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	case <-time.After(50 * time.Millisecond):
	}

	unblock()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the in-flight job finished")
	}
	if code := <-codeCh; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", code)
	}

	// New work after drain is refused, not queued.
	if code := postCode(ts.URL+"/v1/compress",
		CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}}); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request got %d, want 503", code)
	}
}

// TestConcurrentClients hammers every endpoint from many goroutines; run
// under -race this is the load-bearing check on the pool, cache and
// metrics locking.
func TestConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{BenchMaxInstr: 20_000})
	imgB64 := testImageB64(t)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch (g + i) % 4 {
				case 0:
					postCode(ts.URL+"/v1/compress",
						CompressRequest{ProgramRef: ProgramRef{ImageB64: imgB64}})
				case 1:
					postCode(ts.URL+"/v1/verify",
						VerifyRequest{ProgramRef: ProgramRef{Asm: testAsm}})
				case 2:
					postCode(ts.URL+"/v1/simulate",
						SimulateRequest{ProgramRef: ProgramRef{Asm: testAsm}, MaxInstr: 2000})
				default:
					if resp, err := http.Get(ts.URL + "/metrics"); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Every admitted request must have been accounted: 200s or 429s only.
	body := scrape(t, ts)
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "cpackd_requests_total{") &&
			!strings.Contains(line, `code="200"`) && !strings.Contains(line, `code="429"`) {
			t.Errorf("unexpected status in metrics: %s", line)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := mustGet(t, ts.URL+"/healthz")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// --- helpers -------------------------------------------------------------

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp := mustGet(t, ts.URL+"/metrics")
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func scrapeMetric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	return metricValue(t, scrape(t, ts), name)
}

func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(name) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %q not found in scrape:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %q: %v", name, err)
	}
	return v
}
