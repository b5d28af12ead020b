package main

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer answers by request body: "ok" with a correct answer,
// "wrong" with an incorrect 200, "shed" with 429, "boom" with 500 and
// "drop" by closing the connection. Requests arriving while stall is
// positive sleep first and decrement it.
func fakeServer(t *testing.T, stall *atomic.Int32, stallFor time.Duration) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if stall != nil && stall.Add(-1) >= 0 {
			time.Sleep(stallFor)
		}
		switch string(body) {
		case "ok":
			io.WriteString(w, `{"answer":"right"}`)
		case "wrong":
			io.WriteString(w, `{"answer":"wrong"}`)
		case "shed":
			w.WriteHeader(http.StatusTooManyRequests)
		case "boom":
			w.WriteHeader(http.StatusInternalServerError)
		case "drop":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func fakeRequests(kinds ...string) *inputs {
	in := &inputs{}
	for _, k := range kinds {
		in.reqs = append(in.reqs, &request{op: "compress", body: []byte(k), expect: []byte(`"right"`),
			verify: func([]byte) error { return nil }})
	}
	in.draw = func(_ *rand.Rand, i int) int { return i % len(in.reqs) }
	return in
}

// TestFailureAccounting: only a 2xx with a correct answer counts as good;
// non-2xx statuses, transport errors and wrong answers are failures, and
// wrong answers are also counted on their own.
func TestFailureAccounting(t *testing.T) {
	ts := fakeServer(t, nil, 0)
	cs := newCallers(ts.URL)
	defer closeCallers(cs)
	in := fakeRequests("ok", "wrong", "shed", "boom", "drop")

	got := sendAll(context.Background(), cs, in.reqs, false)
	if got.Attempted != 5 || got.Failed != 4 || got.Wrong != 1 {
		t.Fatalf("tally %+v, want 5 attempted, 4 failed, 1 wrong", got)
	}

	// Capacity counts only the good answers: one in five requests.
	const dur = 400 * time.Millisecond
	rps, tl := closedLoop(context.Background(), cs, newStream(in, 1), 0, dur)
	good, succeeded := rps*dur.Seconds(), float64(tl.Attempted-tl.Failed)
	if math.Abs(succeeded-float64(tl.Attempted)/5) > connections || good < succeeded-connections || good > succeeded {
		t.Fatalf("capacity counted %.0f good of %d attempted (%d failed)", good, tl.Attempted, tl.Failed)
	}

	// In the open loop a failed request misses every latency limit.
	res, tl := openLoop(context.Background(), cs, newStream(fakeRequests("ok", "boom"), 1), 200, 0, 500*time.Millisecond, func(bool) {})
	if tl.Failed == 0 || tl.Failed != tl.Attempted/2 {
		t.Fatalf("open loop tally %+v, want half failed", tl)
	}
	if p90, limit := quantile(res.all(), 0.9), ms(requestTimeout); p90 != limit {
		t.Fatalf("p90 %.3f ms, want failures at the %.0f ms request timeout", p90, limit)
	}
	if p25 := quantile(res.all(), 0.25); p25 > 50 {
		t.Fatalf("p25 %.3f ms: successful requests should be fast", p25)
	}
}

// TestShedRunRejected: a server that sheds every tenth request with 429
// fails the run, and the refusals, which cost it nothing, do not lower
// its CPU per request. The fake server spends one CPU millisecond per
// answer.
func TestShedRunRejected(t *testing.T) {
	for _, shed := range []bool{false, true} {
		var seen, answered atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if shed && seen.Add(1)%10 == 0 {
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
			answered.Add(1)
			io.WriteString(w, `{"answer":"right"}`)
		}))
		cs := newCallers(ts.URL)
		cpu := func() (float64, error) { return float64(answered.Load()) / 1000, nil }
		res := &result{Metrics: map[string]float64{}}
		err := latencyPhase(context.Background(), cs, cpu, newStream(fakeRequests("ok"), 1), 200, 0, 500*time.Millisecond, res)
		closeCallers(cs)
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Metrics["cpu_ms_per_req"]; math.Abs(got-1) > 1e-9 {
			t.Errorf("shed %v: cpu_ms_per_req %g, want 1: CPU divides by correct answers only", shed, got)
		}
		err = writeSummary(io.Discard, nil, []*result{res})
		if shed && (res.Failed == 0 || err == nil) {
			t.Errorf("a run with %d of %d requests shed was accepted", res.Failed, res.Attempted)
		}
		if !shed && err != nil {
			t.Errorf("a run with no failures was rejected: %v", err)
		}
	}
}

// TestOpenLoopChargesStalls: a server stall is charged to every request
// scheduled during it, because latency runs from the intended send time.
func TestOpenLoopChargesStalls(t *testing.T) {
	var stall atomic.Int32
	stall.Store(connections) // the first request on each connection stalls
	ts := fakeServer(t, &stall, 200*time.Millisecond)
	cs := newCallers(ts.URL)
	defer closeCallers(cs)
	res, tl := openLoop(context.Background(), cs, newStream(fakeRequests("ok"), 1), 200, 0, 500*time.Millisecond, func(bool) {})
	if tl.Failed != 0 {
		t.Fatalf("tally %+v", tl)
	}
	delayed := 0
	for _, l := range res.all() {
		if l > 50 {
			delayed++
		}
	}
	// About 200 ms x 200 req/s = 40 requests were due during the stall.
	if delayed < 25 {
		t.Fatalf("%d of %d requests charged for the stall, want at least 25", delayed, len(res.all()))
	}
	// Had the scheduler waited for the server, the requests due during the
	// stall would have been enqueued up to 200 ms late. A few milliseconds
	// is the host's own noise.
	if late := quantile(res.late, 0.99); late > 50 {
		t.Fatalf("scheduler lateness p99 %.3f ms: the scheduler must not wait for the server", late)
	}
}

// TestInputBuildNotCharged: inputs are built before the clock starts, so
// a slow build shows up neither as latency nor as scheduler lateness.
func TestInputBuildNotCharged(t *testing.T) {
	ts := fakeServer(t, nil, 0)
	cs := newCallers(ts.URL)
	defer closeCallers(cs)
	slow := workload{name: "slow", rate: 200, build: func(int64) (*inputs, error) {
		time.Sleep(300 * time.Millisecond)
		return fakeRequests("ok"), nil
	}}
	in, err := slow.build(1)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := openLoop(context.Background(), cs, newStream(in, 1), slow.rate, 0, 300*time.Millisecond, func(bool) {})
	// Charged to the run, the 300 ms build would show in both.
	if all := res.all(); all[len(all)-1] > 150 {
		t.Fatalf("max latency %.1f ms includes input building", all[len(all)-1])
	}
	if late := quantile(res.late, 0.99); late > 50 {
		t.Fatalf("scheduler lateness p99 %.3f ms", late)
	}
}

// TestQuantileExact: quantiles come from every sample, so each lies
// between the order statistics that bracket its rank.
func TestQuantileExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := make([]float64, 10007)
	for i := range s {
		s[i] = math.Exp(rng.NormFloat64()) // heavy-tailed, like latency
	}
	sort.Float64s(s)
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		got := quantile(s, q)
		rank := q * float64(len(s)-1)
		lo, hi := s[int(math.Floor(rank))], s[int(math.Ceil(rank))]
		if got < lo || got > hi {
			t.Errorf("q%.3f = %g, outside [%g, %g]", q, got, lo, hi)
		}
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	// Per class, weighted by sample count: (1 x 1 ms, 2 x 8 ms) -> 1^(1/3) 8^(2/3).
	byClass := map[string][]float64{"small": {1}, "large": {8, 8}}
	if got := classQuantile(byClass, 0.5); math.Abs(got-4) > 1e-9 {
		t.Errorf("class median = %g, want 4", got)
	}
}
