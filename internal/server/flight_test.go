package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"codepack"
)

// TestFlightGroupCoalesces: followers arriving while a fill is in
// flight ride the leader's result instead of running their own.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	im, err := codepack.Assemble("flight", testAsm)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := codepack.Compress(im)
	if err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	fills := 0
	go func() {
		g.do(context.Background(), "k", func(context.Context) (*codepack.Compressed, bool, *httpError) {
			close(entered)
			<-release
			fills++
			return comp, false, nil
		})
	}()
	<-entered // the leader is inside its fill

	const followers = 4
	var wg sync.WaitGroup
	arrived := make(chan struct{}, followers)
	results := make([]bool, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived <- struct{}{}
			got, cached, follower, herr := g.do(context.Background(), "k",
				func(context.Context) (*codepack.Compressed, bool, *httpError) {
					t.Error("follower ran its own fill")
					return nil, false, nil
				})
			if herr != nil {
				t.Errorf("follower %d: %v", i, herr)
			}
			if got != comp {
				t.Errorf("follower %d got a different result", i)
			}
			if !cached {
				t.Errorf("follower %d not reported cached", i)
			}
			results[i] = follower
		}(i)
	}
	// Each follower signals just before calling do; give them a settle
	// window to park on the flight before the leader is released. (The
	// leader is still blocked in its fill, so the key cannot vanish.)
	for i := 0; i < followers; i++ {
		<-arrived
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, f := range results {
		if !f {
			t.Errorf("follower %d not reported as follower", i)
		}
	}
	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}

	// The key is released: the next do is a fresh leader.
	_, _, follower, _ := g.do(context.Background(), "k",
		func(context.Context) (*codepack.Compressed, bool, *httpError) { return comp, true, nil })
	if follower {
		t.Error("post-flight call still reported as follower")
	}
}

// TestFlightGroupFollowerCancel: a follower whose context ends while
// waiting gets a 503 instead of hanging on the leader.
func TestFlightGroupFollowerCancel(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		g.do(context.Background(), "k", func(context.Context) (*codepack.Compressed, bool, *httpError) {
			close(entered)
			<-release
			return nil, false, nil
		})
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, follower, herr := g.do(ctx, "k",
		func(context.Context) (*codepack.Compressed, bool, *httpError) { return nil, false, nil })
	if !follower {
		t.Error("cancelled waiter not reported as follower")
	}
	if herr == nil || herr.code != http.StatusServiceUnavailable {
		t.Errorf("cancelled waiter got %v, want 503", herr)
	}
}

// TestFlightGroupFillPanic: a fill that panics still releases its key:
// a parked follower is woken with a 500 at once rather than waiting out
// its deadline, and the next do for the key runs a fresh fill.
func TestFlightGroupFillPanic(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	release := make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		g.do(context.Background(), "k", func(context.Context) (*codepack.Compressed, bool, *httpError) {
			close(entered)
			<-release
			panic("injected")
		})
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fctx := &parkedCtx{Context: ctx, parked: make(chan struct{})}
	woken := make(chan *httpError, 1)
	go func() {
		_, _, follower, herr := g.do(fctx, "k", func(context.Context) (*codepack.Compressed, bool, *httpError) {
			t.Error("follower ran its own fill")
			return nil, false, nil
		})
		if !follower {
			t.Error("waiter not reported as follower")
		}
		woken <- herr
	}()
	<-fctx.parked
	close(release)

	if v := <-leader; v != "injected" {
		t.Errorf("leader recovered %v, want the fill's panic", v)
	}
	select {
	case herr := <-woken:
		if herr == nil || herr.code != http.StatusInternalServerError {
			t.Errorf("follower got %v, want 500", herr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower still parked after the fill panicked")
	}

	fills := 0
	_, _, follower, herr := g.do(ctx, "k", func(context.Context) (*codepack.Compressed, bool, *httpError) {
		fills++
		return nil, false, nil
	})
	if follower || fills != 1 || herr != nil {
		t.Errorf("next do: follower=%v fills=%d err=%v, want a fresh fill", follower, fills, herr)
	}
}

// parkedCtx closes parked the first time Done is asked for, which in
// flightGroup.do is a follower entering its wait on the flight.
type parkedCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (c *parkedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// TestCompressCoalescingAccounting: under a burst of identical
// compress requests exactly one compression runs; every other request
// is a cache hit or a coalesced follower.
func TestCompressCoalescingAccounting(t *testing.T) {
	s, ts := newTestServer(t, Config{LightWorkers: 8, LightQueue: 16})

	// Hold every compress job at the gate until all eight are on
	// workers, then release them together so the misses overlap.
	const n = 8
	var once sync.Once
	started := make(chan struct{}, n)
	release := make(chan struct{})
	s.testHook = func(op string) {
		if op == "compress" {
			started <- struct{}{}
			<-release
		}
	}
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	im, err := codepack.Assemble("burst", testAsm)
	if err != nil {
		t.Fatal(err)
	}
	req := CompressRequest{ProgramRef: ProgramRef{
		ImageB64: base64.StdEncoding.EncodeToString(im.Marshal())}}

	type result struct {
		code   int
		cached bool
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			resp := postCode2(ts.URL+"/v1/compress", req)
			results <- resp
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	once.Do(func() { close(release) })

	uncached := 0
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("request returned %d, want 200", r.code)
		}
		if !r.cached {
			uncached++
		}
	}
	if uncached != 1 {
		t.Errorf("%d requests reported cached=false, want exactly 1", uncached)
	}
	hits := scrapeMetric(t, ts, "cpackd_cache_hits_total")
	coalesced := scrapeMetric(t, ts, "cpackd_compress_coalesced_total")
	if hits+coalesced != n-1 {
		t.Errorf("hits (%v) + coalesced (%v) = %v, want %d", hits, coalesced, hits+coalesced, n-1)
	}
}

// postCode2 posts and decodes just enough of a compress response for
// goroutine use: status code plus the cached flag.
func postCode2(url string, body any) (r struct {
	code   int
	cached bool
}) {
	b, err := json.Marshal(body)
	if err != nil {
		r.code = -1
		return r
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		r.code = -1
		return r
	}
	defer resp.Body.Close()
	r.code = resp.StatusCode
	var cr CompressResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err == nil {
		r.cached = cr.Cached
	}
	return r
}

// TestRetryAfterSecs: the shed hint scales with the tenant's own
// backlog against its fair share of workers and clamps at 30. With a
// single backlogged tenant the share is the whole pool, matching the
// old global backlog-per-worker formula.
func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		workers, depth int
		want           int
	}{
		{1, 0, 1},
		{1, 3, 4},
		{4, 8, 3},
		{2, 1000, 30},
	}
	for _, c := range cases {
		p := &pool{workers: c.workers, queues: map[string]*tenantQueue{}}
		if c.depth > 0 {
			q := &tenantQueue{id: "anon", weight: 1, jobs: make([]*job, c.depth)}
			p.queues["anon"] = q
		}
		if got := p.retryAfterFor("anon"); got != c.want {
			t.Errorf("retryAfterFor(workers=%d, depth=%d) = %d, want %d",
				c.workers, c.depth, got, c.want)
		}
	}
}

// TestRetryAfterDerived: a shed request's Retry-After reflects the live
// queue depth, not a constant.
func TestRetryAfterDerived(t *testing.T) {
	s, ts := newTestServer(t, Config{HeavyWorkers: 1, HeavyQueue: 3, BenchMaxInstr: 10_000})

	block := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(block) }) }
	t.Cleanup(unblock)

	started := make(chan struct{}, 8)
	s.testHook = func(op string) {
		if op == "simulate" {
			started <- struct{}{}
			<-block
		}
	}

	simBody := SimulateRequest{ProgramRef: ProgramRef{Asm: testAsm}, MaxInstr: 1000}
	codes := make(chan int, 4)
	for i := 0; i < 4; i++ {
		go func() { codes <- postCode(ts.URL+"/v1/simulate", simBody) }()
	}
	<-started // one on the worker...
	waitFor(t, func() bool { return s.heavy.depth() == 3 })

	// Queue depth 3, one worker: the hint must be 1 + 3/1 = 4 seconds.
	resp := postJSON(t, ts.URL+"/v1/simulate", simBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated pool returned %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "4" {
		t.Errorf("Retry-After = %q, want \"4\"", got)
	}

	unblock()
	for i := 0; i < 4; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("queued request finished with %d, want 200", code)
		}
	}
}

// TestRetryAfterHeaderNumeric guards the contract that Retry-After is
// always a positive integer (RFC 9110 delta-seconds).
func TestRetryAfterHeaderNumeric(t *testing.T) {
	re := regexp.MustCompile(`^[0-9]+$`)
	for _, depth := range []int{0, 1, 100, 10_000} {
		p := &pool{workers: 3, queues: map[string]*tenantQueue{}}
		if depth > 0 {
			p.queues["anon"] = &tenantQueue{id: "anon", weight: 1, jobs: make([]*job, depth)}
		}
		v := strconv.Itoa(p.retryAfterFor("anon"))
		if !re.MatchString(v) || p.retryAfterFor("anon") < 1 {
			t.Errorf("depth %d: Retry-After %q not a positive integer", depth, v)
		}
	}
}
