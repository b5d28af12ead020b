// Command perfbench is the end-to-end benchmark of cpackd, the HTTP
// service over the CodePack codec. BENCHMARK.json at the repository root
// declares its workloads and metrics; README.md in this directory says
// what each one measures and which layer should move which metric.
//
// Usage, from the repository root (run.sh builds cpackd and this command
// from the checkout first):
//
//	bash perfbench/run.sh --workload misses-small --seed 3 --seconds 20 --trace 0
//	bash perfbench/run.sh --list
//
// For each workload it builds the inputs from the seed, boots a fresh
// cpackd child process (setup, repeated for a median), measures capacity
// with a closed loop and latency with an open loop at the workload's
// pinned rate over two connections, and checks every answer against the
// library; a wrong answer, a refused request or a transport error makes
// it exit 1. With --trace 1 it instead measures the layers: /metrics deltas
// around the open loop, the same loop against a server with span tracing
// off, and an in-process replay of the request stream that times each
// library call a handler makes. Every metric is printed as
// "<workload> <metric> <value> <unit>", and the last line of standard
// output is a JSON summary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// A --trace 0 run boots and warms a server at least minSetups times,
	// and again while the boots so far took under setupBudget, up to
	// maxSetups; setup_s is the median. Short set-ups are the noisiest,
	// so they get the most samples.
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 3 * time.Second
	// runTimeout bounds a whole invocation.
	runTimeout = 170 * time.Second
	// maxSchedLateMS is the scheduler lateness p99 above which the open
	// loop did not keep its schedule and the run is invalid.
	maxSchedLateMS = 1.0
)

// serverStages are the cpackd_stage_duration_seconds stages the traced
// run reports.
var serverStages = []string{"handler", "queue-wait", "resolve-image", "cache-lookup", "fill", "compress"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	bin     string // cpackd binary
	tmp     string // directory for the servers' logs
}

// span returns the given share of the run's measured seconds.
func (o options) span(share float64) time.Duration {
	return time.Duration(share * float64(o.seconds))
}

// result is one workload's run: its requests over every phase, and its
// metrics.
type result struct {
	Workload string `json:"workload"`
	tally
	Valid   bool               `json:"valid"`
	Notes   []string           `json:"notes,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

func (r *result) invalid(format string, args ...any) {
	r.Valid = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run (empty = every workload in the spec)")
		seed         = fs.Int64("seed", 1, "input seed: the same seed builds the same inputs")
		seconds      = fs.Float64("seconds", 0, "measured seconds per workload (0 = the spec's run_seconds)")
		traceFlag    = fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
		specPath     = fs.String("bench", "BENCHMARK.json", "benchmark spec")
		bin          = fs.String("cpackd", ".bench_build/bin/cpackd", "cpackd binary under test")
		out          = fs.String("out", "", "also write every metric, with a host fingerprint, as JSON to this file")
		list         = fs.Bool("list", false, "print the spec's workloads and metrics and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *list {
		spec.writeList(stdout)
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	var selected []workload
	for _, sw := range spec.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: spec workload %q is not implemented\n", sw.Name)
			return 1
		}
		if *workloadName == "" || *workloadName == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workloadName)
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1, bin: *bin}
	if o.seconds <= 0 {
		o.seconds = time.Duration(spec.RunSeconds) * time.Second
	}
	declared := spec.EndToEnd
	if o.trace {
		declared = spec.PerLayer
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ctx, cancelRun := context.WithTimeout(ctx, runTimeout)
	defer cancelRun()

	// Server logs go to a temporary directory inside the checkout, next to
	// the build outputs.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.tmp, err = os.MkdirTemp(".bench_build", "tmp-"); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.tmp)
	if o.bin, err = filepath.Abs(o.bin); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	var results []*result
	for _, w := range selected {
		fmt.Fprintf(stderr, "perfbench: %s (seed %d, %v, trace %d)\n", w.name, o.seed, o.seconds, *traceFlag)
		res, err := runWorkload(ctx, o, w)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		for _, n := range res.Notes {
			fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, n)
		}
		if res.firstErr != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %d of %d requests failed, first: %v\n",
				w.name, res.Failed, res.Attempted, res.firstErr)
		}
		for _, m := range declared {
			if _, ok := res.Metrics[m.Name]; !ok {
				fmt.Fprintf(stderr, "perfbench: %s: declared metric %s was not measured\n", w.name, m.Name)
				return 1
			}
		}
		results = append(results, res)
	}

	if *out != "" {
		if err := writeReport(*out, o, results); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := writeSummary(stdout, declared, results); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, o options, w workload) (*result, error) {
	res := &result{Workload: w.name, Valid: true, Metrics: map[string]float64{}}
	m := res.Metrics
	if runtime.NumCPU() < connections {
		res.invalid("host has %d CPUs, fewer than the %d connections", runtime.NumCPU(), connections)
	}
	t0 := time.Now()
	in, err := w.build(o.seed)
	if err != nil {
		return nil, fmt.Errorf("build inputs: %w", err)
	}
	m["loadgen.input_build_s"] = time.Since(t0).Seconds()
	// Collect the build's garbage now rather than during a timed phase.
	runtime.GC()

	var (
		setups []float64
		spent  float64
		srv    *target
	)
	for len(setups) == 0 || !o.trace && len(setups) < maxSetups &&
		(len(setups) < minSetups || spent < setupBudget.Seconds()) {
		if srv != nil {
			srv.stop()
		}
		if srv, err = setup(ctx, o, in, &res.tally); err != nil {
			return nil, err
		}
		setups = append(setups, srv.setupS)
		spent += srv.setupS
	}
	defer func() { srv.stop() }()
	m["setup_s"] = median(setups)
	st := newStream(in, o.seed)

	if !o.trace {
		capRPS, t := closedLoop(ctx, srv.callers, st, o.span(0.1), o.span(0.25))
		res.tally.add(t)
		m["capacity_rps"] = capRPS
		if err := latencyPhase(ctx, srv.callers, srv.d.cpuSeconds, st, w.rate, o.span(0.1), o.span(0.55), res); err != nil {
			return nil, err
		}
		if m["rss_peak_mb"], err = srv.d.peakRSSMB(); err != nil {
			return nil, err
		}
	} else {
		before, err := srv.d.scrape(ctx)
		if err != nil {
			return nil, err
		}
		if err := latencyPhase(ctx, srv.callers, srv.d.cpuSeconds, st, w.rate, o.span(0.1), o.span(0.3), res); err != nil {
			return nil, err
		}
		after, err := srv.d.scrape(ctx)
		if err != nil {
			return nil, err
		}
		serverMetrics(before, after, m)
		m["server.cpu_ms_per_req"] = m["cpu_ms_per_req"]
	}
	res.tally.add(sendAll(ctx, srv.callers, in.reqs, true))
	srv.stop()

	if o.trace {
		// The same open loop against a server with span tracing off: the
		// CPU difference is the cost of the server's own instrumentation.
		untraced, err := setup(ctx, o, in, &res.tally, "-trace-ring", "0")
		if err != nil {
			return nil, err
		}
		off := &result{Metrics: map[string]float64{}}
		err = latencyPhase(ctx, untraced.callers, untraced.d.cpuSeconds, newStream(in, o.seed), w.rate, o.span(0.1), o.span(0.3), off)
		untraced.stop()
		if err != nil {
			return nil, err
		}
		res.tally.add(off.tally)
		m["obs.tracing_cpu_ms_per_req"] = m["server.cpu_ms_per_req"] - off.Metrics["cpu_ms_per_req"]

		rp := newReplay(in)
		if err := rp.run(ctx, o.seed, o.span(0.2)); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		rp.metrics(m)
		m["http.plumbing_ms_per_req"] = m["server.cpu_ms_per_req"] - m["replay.ms_per_req"]
	}

	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return res, ctx.Err()
}

// target is a running server and the generator's connections to it.
type target struct {
	d       *daemon
	callers []*caller
	setupS  float64 // seconds from exec to the end of the warm pass
}

// stop stops the server; a second call does nothing.
func (t *target) stop() {
	if t.d == nil {
		return
	}
	closeCallers(t.callers)
	t.d.stop()
	t.d = nil
}

// setup boots a fresh cpackd and runs the warm pass.
func setup(ctx context.Context, o options, in *inputs, t *tally, extra ...string) (*target, error) {
	start := time.Now()
	d, err := startDaemon(ctx, o.bin, o.tmp, extra...)
	if err != nil {
		return nil, err
	}
	srv := &target{d: d, callers: newCallers(d.base)}
	warm := make([]*request, len(in.warm))
	for i, j := range in.warm {
		warm[i] = in.reqs[j]
	}
	wt := sendAll(ctx, srv.callers, warm, false)
	srv.setupS = time.Since(start).Seconds()
	t.add(wt)
	if wt.Failed > 0 {
		srv.stop()
		return nil, fmt.Errorf("warm pass: %d of %d requests failed, first: %v", wt.Failed, wt.Attempted, wt.firstErr)
	}
	return srv, nil
}

// latencyPhase runs the open loop against the server whose CPU time
// serverCPU reads, and records the latency, server CPU and generator
// metrics of its measured window into res. CPU is divided by the correct
// answers only: a shed or failed request costs the server almost nothing
// and must not make it look cheaper per request.
func latencyPhase(ctx context.Context, cs []*caller, serverCPU func() (float64, error), st *stream, rate float64, warm, dur time.Duration, res *result) error {
	var cpu, self [2]float64
	var cpuErr error
	mark := func(start bool) {
		i := 1
		if start {
			i = 0
		}
		c, err := serverCPU()
		cpu[i], self[i] = c, selfCPUSeconds()
		cpuErr = errors.Join(cpuErr, err)
	}
	lr, t := openLoop(ctx, cs, st, rate, warm, dur, mark)
	res.tally.add(t)
	if cpuErr != nil {
		return cpuErr
	}
	if lr.good == 0 {
		return fmt.Errorf("open loop measured no correct answers")
	}
	all := lr.all()
	good := float64(lr.good)
	m := res.Metrics
	m["p50_ms"] = classQuantile(lr.latency, 0.5)
	m["cpu_ms_per_req"] = (cpu[1] - cpu[0]) * 1000 / good
	m["loadgen.p90_ms"] = quantile(all, 0.9)
	m["loadgen.p99_ms"] = quantile(all, 0.99)
	m["loadgen.p999_ms"] = quantile(all, 0.999)
	m["loadgen.samples"] = float64(len(all))
	m["loadgen.sched_late_p99_ms"] = quantile(lr.late, 0.99)
	m["loadgen.conn_wait_p50_ms"] = quantile(lr.connWait, 0.5)
	m["loadgen.client_cpu_ms_per_req"] = (self[1] - self[0]) * 1000 / good
	if late := m["loadgen.sched_late_p99_ms"]; late > maxSchedLateMS {
		res.invalid("scheduler lateness p99 %.3f ms exceeds %.0f ms: the open loop fell behind its schedule", late, maxSchedLateMS)
	}
	return nil
}

// serverMetrics derives the server-side layer metrics from two /metrics
// scrapes around the open loop.
func serverMetrics(before, after map[string]float64, m map[string]float64) {
	delta := func(k string) float64 { return after[k] - before[k] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var requests float64
	for k, v := range after {
		if strings.HasPrefix(k, "cpackd_requests_total{") {
			requests += v - before[k]
		}
	}
	hits, misses := delta("cpackd_cache_hits_total"), delta("cpackd_cache_misses_total")
	m["server.cache.hit_rate"] = ratio(hits, hits+misses)
	m["server.cache.evictions_per_req"] = ratio(delta("cpackd_cache_evictions_total"), requests)
	m["server.coalesced"] = delta("cpackd_compress_coalesced_total")
	m["server.go.gc_pause_p99_ms"] = after["cpackd_go_gc_pause_p99_seconds"] * 1000
	m["server.go.heap_live_mb"] = after["cpackd_go_heap_live_bytes"] / (1 << 20)
	for _, s := range serverStages {
		labels := `{stage="` + s + `"}`
		sum, n := delta("cpackd_stage_duration_seconds_sum"+labels), delta("cpackd_stage_duration_seconds_count"+labels)
		m["server.stage."+s+".mean_ms"] = ratio(sum*1000, n)
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// writeSummary prints every declared metric as "<workload> <metric>
// <value> <unit>" and then the one-line JSON summary. It returns an error
// if any request failed: a wrong answer, and equally a shed request or a
// transport error, because at the pinned rates a correct server fails
// none, and a run that sheds load would otherwise report the cheap
// refusals as a faster server.
func writeSummary(w io.Writer, declared []SpecMetric, results []*result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		for _, m := range declared {
			v := r.Metrics[m.Name]
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
			key := m.Name
			if len(results) > 1 {
				key = r.Workload + "." + m.Name
			}
			summary.Metrics[key] = value{v, m.Unit}
		}
		summary.Correct = summary.Correct && r.Wrong == 0
		summary.Attempted += r.Attempted
		summary.Failed += r.Failed
	}
	b, _ := json.Marshal(summary)
	fmt.Fprintf(w, "%s\n", b)
	switch {
	case !summary.Correct:
		return errors.New("wrong answers: the server's output differs from the library's")
	case summary.Failed > 0:
		return fmt.Errorf("%d of %d requests failed", summary.Failed, summary.Attempted)
	}
	return nil
}

// writeReport writes every metric of every result, with the settings and
// a host fingerprint, to path.
func writeReport(path string, o options, results []*result) error {
	doc := struct {
		Schema      string      `json:"schema"`
		Fingerprint fingerprint `json:"fingerprint"`
		Seed        int64       `json:"seed"`
		Seconds     float64     `json:"seconds"`
		Trace       bool        `json:"trace"`
		Results     []*result   `json:"results"`
	}{"perfbench/v1", hostFingerprint(), o.seed, o.seconds.Seconds(), o.trace, results}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
