package main

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"

	"codepack/internal/loadgen"
)

// TestBenchSmoke is the `make bench-smoke` entrypoint: a short churn
// run against one in-process cpackd must achieve nonzero throughput,
// draw zero 5xx responses and zero transport errors, and emit valid
// schema-tagged JSON with live server-side cache deltas.
func TestBenchSmoke(t *testing.T) {
	var out, errs bytes.Buffer
	err := run([]string{
		"-scenario", "churn",
		"-qps", "150", "-duration", "2s", "-warmup", "250ms",
		"-seed", "42", "-json",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errs.String())
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Schema != loadgen.ReportSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, loadgen.ReportSchema)
	}
	if rep.Scenario != "churn" || rep.Seed != 42 {
		t.Fatalf("report identity wrong: %+v", rep)
	}
	if rep.Completed == 0 || rep.ThroughputRPS <= 0 {
		t.Fatalf("no throughput: completed=%d rps=%.1f", rep.Completed, rep.ThroughputRPS)
	}
	if rep.TransportErrors != 0 {
		t.Fatalf("%d transport errors against in-process server", rep.TransportErrors)
	}
	if n := rep.Status5xx(); n != 0 {
		t.Fatalf("%d 5xx responses: %v", n, rep.ByOp)
	}
	if rep.Server == nil {
		t.Fatal("server metrics deltas missing")
	}
	if rep.Server.CacheHits+rep.Server.CacheMisses == 0 {
		t.Fatalf("no cache activity recorded: %+v", rep.Server)
	}
	// After one pass over the working set every request is a repeat, so
	// hits must dominate.
	if rep.Server.HitRate < 0.5 {
		t.Fatalf("churn hit rate %.2f, want >= 0.5", rep.Server.HitRate)
	}
	if rep.Latency.N == 0 || rep.Latency.P50 <= 0 || rep.Latency.Max < rep.Latency.P50 {
		t.Fatalf("implausible latency stats: %+v", rep.Latency)
	}
}

// TestFlashcrowdCoalesces: the opening burst on one large uncached digest
// must ride a single in-flight fill — the cpackd_compress_coalesced_total
// delta in the report is the proof the scenario exists to produce.
func TestFlashcrowdCoalesces(t *testing.T) {
	var out, errs bytes.Buffer
	err := run([]string{
		"-scenario", "flashcrowd",
		"-qps", "300", "-duration", "1500ms", "-warmup", "0s",
		"-c", "32", "-seed", "7", "-json",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errs.String())
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Server == nil {
		t.Fatal("server metrics deltas missing")
	}
	if rep.Server.Coalesced == 0 {
		t.Fatalf("flashcrowd produced no singleflight coalescing: %+v", rep.Server)
	}
	if n := rep.Status5xx(); n != 0 {
		t.Fatalf("%d 5xx responses: %v", n, rep.ByOp)
	}
}

// TestTenantFairnessSmoke is the `make tenant-smoke` entrypoint: the
// tenants scenario floods an in-process cpackd with a 10:1 heavy:light
// offered-load skew. Weighted-fair admission must keep the light
// tenant's p99 under a pinned bound and its 429 rate near zero — the
// heavy tenant's overload may only shed onto the heavy tenant itself.
func TestTenantFairnessSmoke(t *testing.T) {
	var out, errs bytes.Buffer
	err := run([]string{
		"-scenario", "tenants",
		"-qps", "400", "-duration", "3s", "-warmup", "500ms",
		"-c", "64", "-seed", "11", "-json",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errs.String())
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.TransportErrors != 0 {
		t.Fatalf("%d transport errors against in-process server", rep.TransportErrors)
	}
	light := rep.Tenants[loadgen.BenchTenantLight]
	heavy := rep.Tenants[loadgen.BenchTenantHeavy]
	if light == nil || heavy == nil {
		t.Fatalf("report missing tenant sections: %v", rep.Tenants)
	}
	if light.Requests == 0 || heavy.Requests < 5*light.Requests {
		t.Fatalf("offered-load skew not reproduced: heavy=%d light=%d requests",
			heavy.Requests, light.Requests)
	}
	// The pinned isolation bound: generous enough for CI noise, far below
	// the multi-second queueing delay the heavy tenant's backlog would
	// impose on a shared global queue.
	const lightP99BoundMs = 1500.0
	if light.Latency.P99 > lightP99BoundMs {
		t.Errorf("light tenant p99 = %.1fms, want <= %.0fms despite heavy overload",
			light.Latency.P99, lightP99BoundMs)
	}
	if frac := float64(light.Status429()) / float64(light.Requests); frac > 0.03 {
		t.Errorf("light tenant shed %.1f%% of its requests (%d of %d), want < 3%%",
			100*frac, light.Status429(), light.Requests)
	}
	if rep.Fairness <= 0 || rep.Fairness > 1.0001 {
		t.Errorf("fairness index %.3f outside (0, 1]", rep.Fairness)
	}
	if n := rep.Status5xx(); n != 0 {
		t.Fatalf("%d 5xx responses: %v", n, rep.ByOp)
	}
}

// TestListScenarios: -list names exactly the three scenarios, one a line.
func TestListScenarios(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if want := []string{"churn", "flashcrowd", "tenants"}; !slices.Equal(names, want) {
		t.Fatalf("-list names %v, want %v:\n%s", names, want, out.String())
	}
}

// TestUnknownScenarioIsUsageError: a name outside the catalogue, "all"
// included, is a usage error.
func TestUnknownScenarioIsUsageError(t *testing.T) {
	for _, name := range []string{"bogus", "all"} {
		err := run([]string{"-scenario", name, "-duration", "1s"}, io.Discard, io.Discard)
		var uerr usageError
		if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
			t.Fatalf("-scenario %s: err = %v, want unknown-scenario usage error", name, err)
		}
		if !errorsAsUsage(err, &uerr) {
			t.Fatalf("-scenario %s: err %T is not a usageError", name, err)
		}
	}
}

func errorsAsUsage(err error, target *usageError) bool {
	u, ok := err.(usageError)
	if ok {
		*target = u
	}
	return ok
}
