package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline commits a synthetic trajectory with the given
// name -> ns/op microbenchmarks as BENCH_<n>.json in dir.
func writeBaseline(t *testing.T, dir string, n int, micro map[string]float64) string {
	t.Helper()
	tr := Trajectory{Schema: benchSchema, PR: n}
	for name, ns := range micro {
		tr.Micro = append(tr.Micro, MicroBench{Name: name, Iterations: 10, NsPerOp: ns})
	}
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_"+itoa(n)+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for ; n > 0; n /= 10 {
		b = append([]byte{byte('0' + n%10)}, b...)
	}
	return string(b)
}

// writeBenchOutput captures a fake `go test -bench -benchmem` output.
func writeBenchOutput(t *testing.T, dir string, lines ...string) string {
	t.Helper()
	path := filepath.Join(dir, "bench.out")
	content := "goos: linux\npkg: codepack\n" + strings.Join(lines, "\n") + "\nPASS\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
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

func TestComparePassesWhenStable(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, 8, map[string]float64{
		"BenchmarkDecodeThroughput/reference": 5_000_000,
		"BenchmarkDecodeThroughput/fast":      2_000_000,
		"BenchmarkDecodePooled/pooled":        2_100_000,
	})
	in := writeBenchOutput(t, dir,
		"BenchmarkDecodeThroughput/reference-8   100   5100000 ns/op   57.0 MB/s",
		"BenchmarkDecodeThroughput/fast-8        300   2050000 ns/op  139.0 MB/s",
		"BenchmarkDecodePooled/pooled-8          300   2150000 ns/op  123.0 MB/s  0 B/op  0 allocs/op",
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
	base := writeBaseline(t, dir, 8, map[string]float64{
		"BenchmarkDecodeThroughput/reference": 5_000_000,
		"BenchmarkDecodeThroughput/fast":      2_000_000,
	})
	// fast got 1.5x slower while the anchor held: a real regression.
	in := writeBenchOutput(t, dir,
		"BenchmarkDecodeThroughput/reference-8   100   5000000 ns/op",
		"BenchmarkDecodeThroughput/fast-8        200   3000000 ns/op",
	)
	out, err := runCompare(t, "-against", base, "-input", in)
	if !errors.Is(err, errRegression) {
		t.Fatalf("err = %v, want errRegression\n%s", err, out)
	}
	if !strings.Contains(out, "REGRESSED") {
		t.Fatalf("report missing REGRESSED verdict:\n%s", out)
	}
}

// TestCompareAnchorNormalizes is the cross-machine case: everything got
// uniformly 2x slower (weaker CI host). The anchor must absorb the
// slowdown so no benchmark trips the threshold.
func TestCompareAnchorNormalizes(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, 8, map[string]float64{
		"BenchmarkDecodeThroughput/reference": 5_000_000,
		"BenchmarkDecodeThroughput/fast":      2_000_000,
		"BenchmarkCompressThroughput":         9_000_000,
	})
	in := writeBenchOutput(t, dir,
		"BenchmarkDecodeThroughput/reference-2   50   10000000 ns/op",
		"BenchmarkDecodeThroughput/fast-2       100    4000000 ns/op",
		"BenchmarkCompressThroughput-2           30   18000000 ns/op",
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
		"BenchmarkDecodeThroughput/reference-2   50   10000000 ns/op",
		"BenchmarkDecodeThroughput/fast-2        50    8000000 ns/op",
	)
	out, err = runCompare(t, "-against", base, "-input", in2)
	if !errors.Is(err, errRegression) {
		t.Fatalf("normalized regression not caught: %v\n%s", err, out)
	}
}

func TestCompareDefaultBaselineIsHighest(t *testing.T) {
	dir := t.TempDir()
	writeBaseline(t, dir, 7, map[string]float64{"BenchmarkDecodeThroughput/fast": 1})
	writeBaseline(t, dir, 9, map[string]float64{"BenchmarkDecodeThroughput/fast": 2_000_000})
	in := writeBenchOutput(t, dir,
		"BenchmarkDecodeThroughput/fast-8   300   2050000 ns/op")
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
	in := writeBenchOutput(t, dir, "BenchmarkX-8 1 100 ns/op")
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

// TestCompareDisjointSetsPass: a baseline that predates a benchmark must
// not fail the run (new benchmarks have no history to regress against).
func TestCompareDisjointSetsPass(t *testing.T) {
	dir := t.TempDir()
	base := writeBaseline(t, dir, 8, map[string]float64{"BenchmarkOld": 1000})
	in := writeBenchOutput(t, dir, "BenchmarkNew-8  100  2000 ns/op")
	out, err := runCompare(t, "-against", base, "-input", in)
	if err != nil {
		t.Fatalf("disjoint sets failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "no benchmarks shared") {
		t.Fatalf("missing disjoint notice:\n%s", out)
	}
}

// TestRecordThenCompare: -record writes a baseline the gate reads back.
// Comparing the recorded capture with itself is x1.00 everywhere; one
// benchmark slowed 1.5x fails the gate; and -record refuses a file name
// that does not carry a PR number.
func TestRecordThenCompare(t *testing.T) {
	dir := t.TempDir()
	in := writeBenchOutput(t, dir,
		"BenchmarkCompressThroughput-2          5   2244619 ns/op  132.21 MB/s  390916 B/op  8 allocs/op",
		"BenchmarkDecodeThroughput/reference-2  5   8162691 ns/op   36.36 MB/s  303104 B/op  1 allocs/op",
		"BenchmarkDecodeThroughput/fast-2       5   2401617 ns/op  123.57 MB/s  303104 B/op  1 allocs/op",
		"BenchmarkServerCompress/hit-2          5   1241502 ns/op  436156 B/op  197 allocs/op",
	)
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
	if tr.Schema != benchSchema || tr.PR != 42 || len(tr.Micro) != 4 {
		t.Fatalf("recorded header schema=%q pr=%d with %d benchmarks", tr.Schema, tr.PR, len(tr.Micro))
	}

	out, err := runCompare(t, "-against", base, "-input", in)
	if err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, out)
	}
	if n := strings.Count(out, "x1.00  ok"); n != 3 {
		t.Fatalf("self-compare: %d of 3 benchmarks at x1.00:\n%s", n, out)
	}

	slow := writeBenchOutput(t, dir,
		"BenchmarkCompressThroughput-2          5   2244619 ns/op",
		"BenchmarkDecodeThroughput/reference-2  5   8162691 ns/op",
		"BenchmarkDecodeThroughput/fast-2       5   3602426 ns/op",
		"BenchmarkServerCompress/hit-2          5   1241502 ns/op",
	)
	out, err = runCompare(t, "-against", base, "-input", slow)
	if !errors.Is(err, errRegression) || !strings.Contains(out, "x1.50  REGRESSED") {
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
