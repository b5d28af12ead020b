// Command benchcompare runs the codec microbenchmarks and guards them
// against regressions: it compares ten fresh samples of each benchmark
// (or a captured `go test -bench` output) against the microbenchmark
// samples of a committed BENCH_<n>.json and fails when a shared
// benchmark got slower. With -record it writes the run, every sample, as a new
// BENCH_<n>.json baseline instead (`make bench-json`).
//
// Raw ns/op is not comparable across machines, so the comparison is
// anchor-normalized: one benchmark present in both runs (the reference
// decoder by default) estimates the machine-speed ratio as the median of
// its current samples over the median of its baseline samples, and every
// other benchmark's current samples are divided by that ratio. A uniform
// slowdown (slower CI host) cancels out; a real regression in one
// benchmark does not. A benchmark is REGRESSED only when a two-sided
// Mann–Whitney U test on its baseline and normalized samples gives
// p < 0.05 and the median normalized ratio exceeds -threshold, so one
// noisy sample cannot fail the gate and a shift inside the noise cannot
// either.
//
//	benchcompare                  # baseline = highest BENCH_*.json, run benchmarks
//	benchcompare -against BENCH_8.json -input bench.out
//	benchcompare -record BENCH_10.json   # run benchmarks, write the baseline
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		var uerr usageError
		if errors.As(err, &uerr) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type usageError string

func (e usageError) Error() string { return string(e) }

// errRegression distinguishes "benchmarks got slower" (exit 1, report
// already printed) from operational failures.
var errRegression = errors.New("benchmark regression against baseline")

// benchPattern selects the microbenchmarks a baseline records and the
// gate compares: encode and decode throughput, the reference-vs-fast
// decoder split, the pooled serve-path decode, and the served path cold
// and warm.
const benchPattern = "CompressThroughput|DecompressThroughput|DecodeThroughput|DecodePooled|ServerCompress"

const (
	// benchCount is how many passes over the set a run makes, one
	// sample of each benchmark per pass; one pass is under a second of
	// benchmark time.
	benchCount = 10
	// minSamples is the fewest samples per side a comparison accepts:
	// with 3 against 3 the smallest two-sided p is 0.1, so the gate
	// could never fail.
	minSamples = 4
	// alpha is the U test's significance level.
	alpha = 0.05
)

// benchFile matches a baseline's file name and captures its PR number.
var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// benchSchema identifies the BENCH_<n>.json wire format.
const benchSchema = "codepack-bench/v1"

// Trajectory is the part of a BENCH_<n>.json document the gate reads and
// -record writes. Older documents also carry a "scenarios" section of
// load runs, which is ignored.
type Trajectory struct {
	Schema    string       `json:"schema"`
	PR        int          `json:"pr"`
	GoVersion string       `json:"go_version,omitempty"`
	Micro     []MicroBench `json:"microbench,omitempty"`
}

// MicroBench is one `go test -bench` result line, normalized: the
// -<GOMAXPROCS> suffix is stripped from the name so baselines compare
// across machines. A baseline holds one per sample, so names repeat.
type MicroBench struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// anchors are tried in order as the machine-speed normalizer. The
// reference decoder is first: single-threaded, allocation-free, and by
// construction untouched by fast-path work, so it moves only when the
// machine does.
var anchors = []string{
	"BenchmarkDecodeThroughput/reference",
	"BenchmarkDecompressThroughput",
	"BenchmarkCompressThroughput",
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchcompare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		against   = fs.String("against", "", "baseline BENCH_<n>.json (default: highest-numbered in -dir)")
		dir       = fs.String("dir", ".", "directory searched for the default baseline")
		input     = fs.String("input", "", "read `go test -bench` output from this file instead of running benchmarks")
		threshold = fs.Float64("threshold", 1.20, "fail when the median normalized ns/op exceeds the baseline's by this factor (and the U test agrees)")
		benchtime = fs.String("benchtime", "20x", "-benchtime when running benchmarks")
		record    = fs.String("record", "", "write the run to this BENCH_<n>.json (PR number from the name) instead of comparing")
	)
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if *threshold <= 1 {
		return usageError("-threshold must be > 1")
	}

	var (
		path string
		base map[string][]float64
		pr   int
		err  error
	)
	if *record != "" {
		m := benchFile.FindStringSubmatch(filepath.Base(*record))
		if m == nil {
			return usageError(fmt.Sprintf("-record %s: want a file named BENCH_<n>.json", *record))
		}
		pr, _ = strconv.Atoi(m[1]) // the pattern admits only digits
	} else {
		if path = *against; path == "" {
			if path, err = latestTrajectory(*dir); err != nil {
				return err
			}
		}
		if base, err = loadBaseline(path); err != nil {
			return err
		}
	}

	var cur []MicroBench
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		if cur, err = ParseGoBench(f); err != nil {
			return err
		}
	} else {
		if cur, err = runBenchmarks(stderr, *benchtime); err != nil {
			return err
		}
	}
	if len(cur) == 0 {
		return fmt.Errorf("no benchmark results in the current run")
	}

	if *record != "" {
		return writeTrajectory(*record, &Trajectory{
			Schema: benchSchema, PR: pr, GoVersion: runtime.Version(), Micro: cur})
	}

	now := samples(cur)
	rep, regressed, err := compare(base, now, *threshold)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(stdout, "baseline %s (%d benchmarks), current run (%d benchmarks)\n",
		path, len(base), len(now))
	fmt.Fprint(stdout, rep)
	if regressed {
		return errRegression
	}
	return nil
}

// latestTrajectory picks the highest-numbered BENCH_<n>.json in dir.
func latestTrajectory(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range ents {
		m := benchFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n > bestN {
			best, bestN = filepath.Join(dir, e.Name()), n
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json baseline in %s", dir)
	}
	return best, nil
}

// loadBaseline reads the microbenchmark samples of a trajectory document.
func loadBaseline(path string) (map[string][]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr Trajectory
	if err := json.Unmarshal(raw, &tr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(tr.Micro) == 0 {
		return nil, fmt.Errorf("%s has no microbenchmark section", path)
	}
	return samples(tr.Micro), nil
}

// samples groups ns/op by benchmark name.
func samples(micro []MicroBench) map[string][]float64 {
	out := make(map[string][]float64)
	for _, mb := range micro {
		out[mb.Name] = append(out[mb.Name], mb.NsPerOp)
	}
	return out
}

// writeTrajectory writes a baseline document as indented JSON.
func writeTrajectory(path string, tr *Trajectory) error {
	raw, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runBenchmarks executes the microbenchmark set in the current tree
// benchCount times. Each pass runs every benchmark once, so the samples
// of each benchmark spread over the whole run, as the anchor's do, and
// a slow or fast stretch of the machine lands on all benchmarks alike
// rather than on whichever one `go test -count` happened to be running.
func runBenchmarks(stderr io.Writer, benchtime string) ([]MicroBench, error) {
	var out []MicroBench
	for range benchCount {
		cmd := exec.Command("go", "test", "-run", "xxx",
			"-bench", benchPattern, "-benchmem", "-benchtime", benchtime, ".")
		cmd.Stderr = stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench: %w", err)
		}
		pass, err := ParseGoBench(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		out = append(out, pass...)
	}
	return out, nil
}

// compare renders the per-benchmark verdicts and reports whether any
// shared benchmark regressed. It is an error for a shared benchmark to
// have fewer than minSamples samples on either side.
func compare(base, cur map[string][]float64, threshold float64) (string, bool, error) {
	var shared []string
	for name := range cur {
		if _, ok := base[name]; ok {
			shared = append(shared, name)
		}
	}
	slices.Sort(shared)
	for _, name := range shared {
		if n := min(len(base[name]), len(cur[name])); n < minSamples {
			return "", false, fmt.Errorf("%s has %d samples on one side, need at least %d", name, n, minSamples)
		}
	}

	scale, anchor := 1.0, ""
	for _, a := range anchors {
		if slices.Contains(shared, a) {
			scale, anchor = median(cur[a])/median(base[a]), a
			break
		}
	}

	var sb strings.Builder
	if anchor == "" {
		fmt.Fprintf(&sb, "no shared anchor benchmark; comparing raw ns/op\n")
	} else {
		fmt.Fprintf(&sb, "anchor %s: machine-speed ratio %.3f\n", anchor, scale)
	}
	regressed := false
	for _, name := range shared {
		if name == anchor {
			continue
		}
		norm := make([]float64, len(cur[name]))
		for i, v := range cur[name] {
			norm[i] = v / scale
		}
		b, c := median(base[name]), median(norm)
		p := mannWhitneyU(base[name], norm)
		verdict := "ok"
		if p < alpha && c/b > threshold {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(&sb, "  %-45s %12.0f -> %12.0f ns/op  x%.2f  p=%.3f  %s\n",
			name, b, c, c/b, p, verdict)
	}
	if len(shared) == 0 {
		fmt.Fprintf(&sb, "  no benchmarks shared with the baseline\n")
	}
	return sb.String(), regressed, nil
}

func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// mannWhitneyU returns the two-sided p-value of the Mann–Whitney U test
// that x and y are samples of one distribution. Without ties it uses the
// exact null distribution of U; with ties, the normal approximation with
// tie and continuity correction, as benchstat does.
func mannWhitneyU(x, y []float64) float64 {
	n1, n2 := len(x), len(y)
	type obs struct {
		v   float64
		inX bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range x {
		all = append(all, obs{v, true})
	}
	for _, v := range y {
		all = append(all, obs{v, false})
	}
	slices.SortFunc(all, func(a, b obs) int { return cmp.Compare(a.v, b.v) })

	// Rank sum of x, with tied values sharing their mean rank.
	var r1, tieSum float64
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2
		for _, o := range all[i:j] {
			if o.inX {
				r1 += rank
			}
		}
		t := float64(j - i)
		tieSum += t*t*t - t
		i = j
	}
	u1 := r1 - float64(n1*(n1+1))/2
	u := math.Min(u1, float64(n1*n2)-u1)
	if tieSum == 0 {
		return math.Min(1, 2*uCDF(n1, n2, int(u)))
	}
	n := float64(n1 + n2)
	sigma := math.Sqrt(float64(n1*n2) / 12 * (n + 1 - tieSum/(n*(n-1))))
	if sigma == 0 {
		return 1
	}
	z := math.Max(0, float64(n1*n2)/2-u-0.5) / sigma
	return math.Erfc(z / math.Sqrt2)
}

// uCDF is P(U <= u) for samples of n1 and n2 untied values under the
// null hypothesis. The count of orderings with a given U obeys
// c(i, j, u) = c(i-1, j, u-j) + c(i, j-1, u): the largest value is
// either an x, which exceeds all j y's, or a y, which exceeds none.
func uCDF(n1, n2, u int) float64 {
	c := make([][][]float64, n1+1)
	for i := range c {
		c[i] = make([][]float64, n2+1)
		for j := range c[i] {
			d := make([]float64, i*j+1)
			if i == 0 || j == 0 {
				d[0] = 1
			} else {
				for k := range d {
					if k >= j {
						d[k] += c[i-1][j][k-j]
					}
					if k < len(c[i][j-1]) {
						d[k] += c[i][j-1][k]
					}
				}
			}
			c[i][j] = d
		}
	}
	var below, total float64
	for k, n := range c[n1][n2] {
		total += n
		if k <= u {
			below += n
		}
	}
	return below / total
}

var benchSuffix = regexp.MustCompile(`-\d+$`)

// ParseGoBench extracts benchmark result lines from `go test -bench`
// output (as produced with -benchmem). Non-result lines are ignored, so
// the full test output can be piped in unfiltered.
func ParseGoBench(r io.Reader) ([]MicroBench, error) {
	var out []MicroBench
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		mb := MicroBench{
			Name:       benchSuffix.ReplaceAllString(f[0], ""),
			Iterations: iters,
		}
		// The remainder is value-unit pairs: "123.4 ns/op", "56 MB/s",
		// "789 B/op", "12 allocs/op", plus custom metrics we skip.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				mb.NsPerOp = v
			case "MB/s":
				mb.MBPerSec = v
			case "B/op":
				mb.BytesPerOp = v
			case "allocs/op":
				mb.AllocsPerOp = v
			}
		}
		if mb.NsPerOp > 0 {
			out = append(out, mb)
		}
	}
	return out, sc.Err()
}
