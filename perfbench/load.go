package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"
)

const (
	// connections is the number of connections, and so of callers, the
	// generator holds open to the server.
	connections = 2
	// latencyLimit is the latency a request must meet to count toward
	// capacity.
	latencyLimit = 100 * time.Millisecond
	// requestTimeout bounds one request. A failed request counts as
	// missing every latency limit, so it enters the latency samples at
	// this value.
	requestTimeout = 10 * time.Second
)

// caller sends requests over one connection of its own.
type caller struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newCallers(base string) []*caller {
	out := make([]*caller, connections)
	for i := range out {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		out[i] = &caller{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: base}
	}
	return out
}

func closeCallers(cs []*caller) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// tally counts requests by outcome. A request fails on a transport
// error, a non-2xx status or a wrong answer: a 2xx response whose body is
// not what the library computes.
type tally struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Wrong     int `json:"wrong_answers"`
	firstErr  error
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Wrong += o.Wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// do sends r and returns the status and body. The body aliases the
// caller's buffer and is valid until the next call.
func (c *caller) do(ctx context.Context, r *request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/"+r.op, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// call sends r, checks the answer with check, and records the outcome in
// t. It reports whether the request succeeded with a correct answer.
func (c *caller) call(ctx context.Context, r *request, t *tally, check func([]byte) error) bool {
	t.Attempted++
	status, body, err := c.do(ctx, r)
	switch {
	case err != nil:
	case status/100 != 2:
		err = fmt.Errorf("%s: status %d: %.200s", r.op, status, body)
	default:
		if err = check(body); err == nil {
			return true
		}
		t.Wrong++
	}
	t.Failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
	return false
}

// sendAll sends each request once, closed loop over every connection.
// With full set it checks each whole answer against the library,
// otherwise only the cheap per-response check.
func sendAll(ctx context.Context, cs []*caller, reqs []*request, full bool) tally {
	var (
		mu    sync.Mutex
		next  int
		total tally
		wg    sync.WaitGroup
	)
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					break
				}
				check := reqs[i].check
				if full {
					check = reqs[i].verify
				}
				c.call(ctx, reqs[i], &t, check)
			}
			mu.Lock()
			total.add(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// closedLoop keeps one request in flight per connection for settle+dur
// and returns the rate of correct answers within the latency limit that
// completed in the last dur.
func closedLoop(ctx context.Context, cs []*caller, st *stream, settle, dur time.Duration) (float64, tally) {
	from := time.Now().Add(settle)
	end := from.Add(dur)
	var (
		mu    sync.Mutex
		good  int
		total tally
		wg    sync.WaitGroup
	)
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			n := 0
			for ctx.Err() == nil && time.Now().Before(end) {
				r := st.next()
				t0 := time.Now()
				ok := c.call(ctx, r, &t, r.check)
				t1 := time.Now()
				if ok && t1.Sub(t0) <= latencyLimit && !t1.Before(from) && !t1.After(end) {
					n++
				}
			}
			mu.Lock()
			good += n
			total.add(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return float64(good) / dur.Seconds(), total
}

// openResult holds the samples of an open-loop phase's measured window,
// in milliseconds, and its count of correct answers.
type openResult struct {
	latency  map[string][]float64 // by request class: completion minus intended send time
	late     []float64            // enqueue minus intended send time
	connWait []float64            // dequeue by a free connection minus enqueue
	good     int
}

// all is every latency sample, sorted.
func (r *openResult) all() []float64 {
	var s []float64
	for _, l := range r.latency {
		s = append(s, l...)
	}
	sort.Float64s(s)
	return s
}

type job struct {
	r                  *request
	measured           bool
	intended, enqueued time.Time
}

// openLoop sends requests on a fixed schedule at rate for warm+dur,
// whether or not a connection is free, and times each from its intended
// send time, so a stall is charged to every request it delays. mark is
// called when the measured window opens (true) and after its last request
// completes (false).
func openLoop(ctx context.Context, cs []*caller, st *stream, rate float64, warm, dur time.Duration, mark func(start bool)) (*openResult, tally) {
	interval := time.Duration(float64(time.Second) / rate)
	nWarm := int(warm.Seconds() * rate)
	total := nWarm + int(dur.Seconds()*rate)
	// Sized to the whole schedule so the scheduler never blocks.
	jobs := make(chan job, total)
	res := &openResult{latency: map[string][]float64{}}
	var (
		mu  sync.Mutex
		all tally
		wg  sync.WaitGroup
	)
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			lat := map[string][]float64{}
			var late, wait []float64
			good := 0
			for j := range jobs {
				deq := time.Now()
				ok := c.call(ctx, j.r, &t, j.r.check)
				done := time.Now()
				if !j.measured {
					continue
				}
				d := done.Sub(j.intended)
				if ok {
					good++
				} else {
					d = requestTimeout
				}
				lat[j.r.class] = append(lat[j.r.class], ms(d))
				late = append(late, ms(j.enqueued.Sub(j.intended)))
				wait = append(wait, ms(deq.Sub(j.enqueued)))
			}
			mu.Lock()
			all.add(t)
			for k, l := range lat {
				res.latency[k] = append(res.latency[k], l...)
			}
			res.late = append(res.late, late...)
			res.connWait = append(res.connWait, wait...)
			res.good += good
			mu.Unlock()
		}()
	}
	start := time.Now()
	for i := 0; i < total && ctx.Err() == nil; i++ {
		intended := start.Add(time.Duration(i) * interval)
		sleepUntil(intended)
		if i == nWarm {
			mark(true)
		}
		jobs <- job{r: st.next(), measured: i >= nWarm, intended: intended, enqueued: time.Now()}
	}
	close(jobs)
	wg.Wait()
	if nWarm >= total {
		mark(true)
	}
	mark(false)
	for _, s := range res.latency {
		sort.Float64s(s)
	}
	sort.Float64s(res.late)
	sort.Float64s(res.connWait)
	return res, all
}

// sleepUntil blocks in nanosleep until t. The runtime's own timers wake
// an idle process with millisecond granularity, which would make the open
// loop up to a millisecond late.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile interpolates linearly between the order statistics of sorted
// samples (type 7 in Hyndman and Fan).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	h := q * float64(len(sorted)-1)
	lo := int(h)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// classQuantile is the q-quantile of each class's sorted samples,
// combined as a geometric mean weighted by the classes' sample counts.
// Requests of different classes differ in cost by up to tenfold, so the
// median of all samples together falls on a boundary between two classes
// and jumps from one to the other with sampling noise; within a class it
// does not. A change that makes every request x% slower moves the result
// by x%.
func classQuantile(byClass map[string][]float64, q float64) float64 {
	n, logSum := 0, 0.0
	for _, s := range byClass {
		n += len(s)
		logSum += float64(len(s)) * math.Log(quantile(s, q))
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// selfCPUSeconds is the generator's own user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
