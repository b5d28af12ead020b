package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeBaseline commits a synthetic trajectory with the given
// name -> ns/op samples as BENCH_<n>.json in dir.
func writeBaseline(t *testing.T, dir string, n int, micro map[string][]float64) string {
	t.Helper()
	tr := Trajectory{Schema: benchSchema, PR: n}
	for name, samples := range micro {
		for _, ns := range samples {
			tr.Micro = append(tr.Micro, MicroBench{Name: name, Iterations: 10, NsPerOp: ns})
		}
	}
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_"+strconv.Itoa(n)+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// ten returns ten distinct samples spread ±4% around ns, the way
// repeated runs of one benchmark scatter.
func ten(ns float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = ns * (0.96 + 0.0085*float64(i))
	}
	return out
}

// scaled multiplies every sample by f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// lines renders samples of one benchmark as `go test -bench` result
// lines (GOMAXPROCS suffix 8).
func lines(name string, samples []float64) []string {
	out := make([]string, len(samples))
	for i, ns := range samples {
		out[i] = fmt.Sprintf("%s-8   20   %.0f ns/op", name, ns)
	}
	return out
}

// writeBenchOutput captures a fake `go test -bench -benchmem` output.
func writeBenchOutput(t *testing.T, dir string, lines ...[]string) string {
	t.Helper()
	path := filepath.Join(dir, "bench.out")
	content := "goos: linux\npkg: codepack\n"
	for _, l := range lines {
		content += strings.Join(l, "\n") + "\n"
	}
	if err := os.WriteFile(path, []byte(content+"PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCompare(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errw strings.Builder
	err := run(args, &out, &errw)
	return out.String() + errw.String(), err
}

const (
	ref  = "BenchmarkDecodeThroughput/reference"
	fast = "BenchmarkDecodeThroughput/fast"
)

// TestMannWhitneyU pins the U test's p-values on hand-checkable cases:
// two fully separated samples of 4 have U = 0, which 1 of the C(8,4) = 70
// orderings reaches, so the two-sided p is 2/70; of 3, 2/C(6,3) = 0.1.
// Identical samples (all tied) give p = 1, and the test is symmetric.
func TestMannWhitneyU(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, 2.0 / 70},
		{[]float64{5, 6, 7, 8}, []float64{1, 2, 3, 4}, 2.0 / 70},
		{[]float64{1, 2, 3}, []float64{4, 5, 6}, 0.1},
		{[]float64{1, 2, 3, 4}, []float64{1, 2, 3, 4}, 1},
		// One swapped pair, no ties: U = 1, reached by 1 ordering as is
		// U = 0, so P(U <= 1) = 2/70.
		{[]float64{1, 2, 3, 5}, []float64{4, 6, 7, 8}, 4.0 / 70},
	}
	for _, c := range cases {
		if got := mannWhitneyU(c.x, c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("mannWhitneyU(%v, %v) = %.6f, want %.6f", c.x, c.y, got, c.want)
		}
	}
	// With ties the normal approximation applies: fully separated
	// samples of 10 with one shared value still reject decisively.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	y := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	if p := mannWhitneyU(x, y); p >= 0.001 {
		t.Errorf("separated samples with a tie: p = %.4f, want < 0.001", p)
	}
}

func TestComparePassesWhenStable(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, 8, map[string][]float64{
		ref:                            ten(5_000_000),
		fast:                           ten(2_000_000),
		"BenchmarkDecodePooled/pooled": ten(2_100_000),
	})
	in := writeBenchOutput(t, dir,
		lines(ref, ten(5_100_000)),
		lines(fast, ten(2_050_000)),
		lines("BenchmarkDecodePooled/pooled", ten(2_150_000)),
	)
	out, err := runCompare(t, "-against", base, "-input", in)
	if err != nil {
		t.Fatalf("stable run failed: %v\n%s", err, out)
	}
	if strings.Contains(out, "REGRESSED") {
		t.Fatalf("stable run reported a regression:\n%s", out)
	}
}

func TestCompareFailsPastThreshold(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, 8, map[string][]float64{
		ref:  ten(5_000_000),
		fast: ten(2_000_000),
	})
	// fast got 1.5x slower on every sample while the anchor held: a real
	// regression.
	in := writeBenchOutput(t, dir,
		lines(ref, ten(5_000_000)),
		lines(fast, scaled(ten(2_000_000), 1.5)),
	)
	out, err := runCompare(t, "-against", base, "-input", in)
	if !errors.Is(err, errRegression) {
		t.Fatalf("err = %v, want errRegression\n%s", err, out)
	}
	if !strings.Contains(out, "x1.50  p=0.000  REGRESSED") {
		t.Fatalf("report missing REGRESSED verdict:\n%s", out)
	}
}

// TestCompareIgnoresOneOutlier: one sample of ten three times slower (a
// scheduler stall) moves neither the median nor the ranks enough to fail.
func TestCompareIgnoresOneOutlier(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, 8, map[string][]float64{
		ref:  ten(5_000_000),
		fast: ten(2_000_000),
	})
	stalled := ten(2_000_000)
	stalled[4] *= 3
	in := writeBenchOutput(t, dir, lines(ref, ten(5_000_000)), lines(fast, stalled))
	out, err := runCompare(t, "-against", base, "-input", in)
	if err != nil || strings.Contains(out, "REGRESSED") {
		t.Fatalf("one outlier failed the gate: %v\n%s", err, out)
	}
}

// TestCompareAnchorNormalizes is the cross-machine case: everything got
// uniformly 2x slower (weaker CI host). The anchor must absorb the
// slowdown so no benchmark trips the threshold.
func TestCompareAnchorNormalizes(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, 8, map[string][]float64{
		ref:                           ten(5_000_000),
		fast:                          ten(2_000_000),
		"BenchmarkCompressThroughput": ten(9_000_000),
	})
	in := writeBenchOutput(t, dir,
		lines(ref, ten(10_000_000)),
		lines(fast, ten(4_000_000)),
		lines("BenchmarkCompressThroughput", ten(18_000_000)),
	)
	out, err := runCompare(t, "-against", base, "-input", in)
	if err != nil {
		t.Fatalf("uniform slowdown tripped the threshold: %v\n%s", err, out)
	}
	if !strings.Contains(out, "machine-speed ratio 2.000") {
		t.Fatalf("anchor ratio not 2.0:\n%s", out)
	}
	// And conversely: a regression hidden inside a machine slowdown is
	// still caught after normalization (fast is 4x raw = 2x normalized).
	in2 := writeBenchOutput(t, dir,
		lines(ref, ten(10_000_000)),
		lines(fast, ten(8_000_000)),
	)
	out, err = runCompare(t, "-against", base, "-input", in2)
	if !errors.Is(err, errRegression) {
		t.Fatalf("normalized regression not caught: %v\n%s", err, out)
	}
}

func TestCompareDefaultBaselineIsHighest(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, 7, map[string][]float64{fast: {1}})
	writeBaseline(t, dir, 9, map[string][]float64{fast: ten(2_000_000)})
	in := writeBenchOutput(t, dir, lines(fast, ten(2_050_000)))
	out, err := runCompare(t, "-dir", dir, "-input", in)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "BENCH_9.json") {
		t.Fatalf("did not pick the highest-numbered baseline:\n%s", out)
	}
}

func TestCompareUsageErrors(t *testing.T) {
	if _, err := runCompare(t, "-threshold", "0.9"); err == nil {
		t.Error("threshold <= 1 accepted")
	}
	dir := t.TempDir()
	in := writeBenchOutput(t, dir, lines("BenchmarkX", ten(100)))
	if _, err := runCompare(t, "-dir", dir, "-input", in); err == nil {
		t.Error("missing baseline accepted")
	}
	// A baseline without a microbench section is an operational error.
	tr := Trajectory{Schema: benchSchema, PR: 1}
	raw, _ := json.Marshal(tr)
	empty := filepath.Join(dir, "BENCH_1.json")
	if err := os.WriteFile(empty, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCompare(t, "-against", empty, "-input", in); err == nil {
		t.Error("baseline without microbenchmarks accepted")
	}
}

// TestCompareRejectsTooFewSamples: with fewer than four samples a side
// the U test cannot reach p < 0.05, so such a comparison is an error,
// not a pass — a one-sample baseline such as BENCH_9.json included.
func TestCompareRejectsTooFewSamples(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, 8, map[string][]float64{
		ref:  {5_000_000, 5_100_000, 4_900_000},
		fast: ten(2_000_000),
	})
	in := writeBenchOutput(t, dir, lines(ref, ten(5_000_000)), lines(fast, scaled(ten(2_000_000), 3)))
	out, err := runCompare(t, "-against", base, "-input", in)
	if err == nil || errors.Is(err, errRegression) || !strings.Contains(err.Error(), "3 samples") {
		t.Fatalf("3-sample baseline: err = %v, want a sample-count error\n%s", err, out)
	}
}

// TestCompareDisjointSetsPass: a baseline that predates a benchmark must
// not fail the run (new benchmarks have no history to regress against).
func TestCompareDisjointSetsPass(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, 8, map[string][]float64{"BenchmarkOld": ten(1000)})
	in := writeBenchOutput(t, dir, lines("BenchmarkNew", []float64{2000}))
	out, err := runCompare(t, "-against", base, "-input", in)
	if err != nil {
		t.Fatalf("disjoint sets failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "no benchmarks shared") {
		t.Fatalf("missing disjoint notice:\n%s", out)
	}
}

// TestRecordThenCompare: -record writes every sample to a baseline the
// gate reads back. Comparing the recorded capture with itself is x1.00
// everywhere; all ten samples of one benchmark slowed 1.5x fail the
// gate; and -record refuses a file name that does not carry a PR number.
func TestRecordThenCompare(t *testing.T) {
	dir := t.TempDir()
	capture := func(fastFactor float64) string {
		return writeBenchOutput(t, dir,
			lines("BenchmarkCompressThroughput", ten(2_244_619)),
			lines(ref, ten(8_162_691)),
			lines(fast, scaled(ten(2_401_617), fastFactor)),
			lines("BenchmarkServerCompress/hit", ten(1_241_502)),
		)
	}
	in := capture(1)
	base := filepath.Join(dir, "BENCH_42.json")
	if out, err := runCompare(t, "-record", base, "-input", in); err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var tr Trajectory
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("recorded baseline is not JSON: %v", err)
	}
	if tr.Schema != benchSchema || tr.PR != 42 || len(tr.Micro) != 40 {
		t.Fatalf("recorded header schema=%q pr=%d with %d samples, want 40", tr.Schema, tr.PR, len(tr.Micro))
	}

	out, err := runCompare(t, "-against", base, "-input", in)
	if err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, out)
	}
	if n := strings.Count(out, "x1.00  p=1.000  ok"); n != 3 {
		t.Fatalf("self-compare: %d of 3 benchmarks at x1.00:\n%s", n, out)
	}

	out, err = runCompare(t, "-against", base, "-input", capture(1.5))
	if !errors.Is(err, errRegression) || !strings.Contains(out, "x1.50  p=0.000  REGRESSED") {
		t.Fatalf("1.5x slowdown: err = %v\n%s", err, out)
	}

	var uerr usageError
	_, err = runCompare(t, "-record", filepath.Join(dir, "baseline.json"), "-input", in)
	if !errors.As(err, &uerr) {
		t.Fatalf("-record without a BENCH_<n>.json name: err = %v, want a usage error", err)
	}
}

func TestParseGoBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
BenchmarkCompressThroughput-8        100     1234567 ns/op      98.76 MB/s     4096 B/op       12 allocs/op
BenchmarkServerCompress/hit-8       2000      654321 ns/op
some unrelated line
PASS
`
	got, err := ParseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(got), got)
	}
	a := got[0]
	if a.Name != "BenchmarkCompressThroughput" || a.NsPerOp != 1234567 ||
		a.MBPerSec != 98.76 || a.BytesPerOp != 4096 || a.AllocsPerOp != 12 || a.Iterations != 100 {
		t.Fatalf("bad parse: %+v", a)
	}
	if got[1].Name != "BenchmarkServerCompress/hit" || got[1].NsPerOp != 654321 {
		t.Fatalf("bad parse: %+v", got[1])
	}
}
