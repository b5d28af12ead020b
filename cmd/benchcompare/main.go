// Command benchcompare runs the codec microbenchmarks and guards them
// against regressions: it compares a fresh `go test -bench` run (or a
// captured output file) against the microbenchmark section of a
// committed BENCH_<n>.json and fails when any shared benchmark got more
// than -threshold times slower. With -record it writes the run as a new
// BENCH_<n>.json baseline instead (`make bench-json`).
//
// Raw ns/op is not comparable across machines, so the comparison is
// anchor-normalized: one benchmark present in both runs (the reference
// decoder by default) estimates the machine-speed ratio, and every other
// benchmark's ns/op is judged against baseline × that ratio. A uniform
// slowdown (slower CI host) cancels out; a real regression in one
// benchmark does not.
//
//	benchcompare                  # baseline = highest BENCH_*.json, run benchmarks
//	benchcompare -against BENCH_8.json -input bench.out
//	benchcompare -record BENCH_10.json   # run benchmarks, write the baseline
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
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
// across machines.
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
		threshold = fs.Float64("threshold", 1.20, "fail when normalized ns/op exceeds baseline by this factor")
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
		base map[string]MicroBench
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

	rep, regressed := compare(base, cur, *threshold)
	fmt.Fprintf(stdout, "baseline %s (%d benchmarks), current run (%d benchmarks)\n",
		path, len(base), len(cur))
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

// loadBaseline reads the microbenchmark section of a trajectory document.
func loadBaseline(path string) (map[string]MicroBench, error) {
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
	out := make(map[string]MicroBench, len(tr.Micro))
	for _, mb := range tr.Micro {
		out[mb.Name] = mb
	}
	return out, nil
}

// writeTrajectory writes a baseline document as indented JSON.
func writeTrajectory(path string, tr *Trajectory) error {
	raw, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runBenchmarks executes the microbenchmark set in the current tree.
func runBenchmarks(stderr io.Writer, benchtime string) ([]MicroBench, error) {
	cmd := exec.Command("go", "test", "-run", "xxx",
		"-bench", benchPattern, "-benchmem", "-benchtime", benchtime, ".")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return ParseGoBench(strings.NewReader(string(out)))
}

// compare renders the per-benchmark verdicts and reports whether any
// shared benchmark regressed past the threshold.
func compare(base map[string]MicroBench, cur []MicroBench, threshold float64) (string, bool) {
	scale, anchor := 1.0, ""
	for _, a := range anchors {
		if b, ok := base[a]; ok {
			for _, c := range cur {
				if c.Name == a && b.NsPerOp > 0 {
					scale, anchor = c.NsPerOp/b.NsPerOp, a
					break
				}
			}
		}
		if anchor != "" {
			break
		}
	}

	var sb strings.Builder
	if anchor == "" {
		fmt.Fprintf(&sb, "no shared anchor benchmark; comparing raw ns/op\n")
	} else {
		fmt.Fprintf(&sb, "anchor %s: machine-speed ratio %.3f\n", anchor, scale)
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].Name < cur[j].Name })
	regressed := false
	shared := 0
	for _, c := range cur {
		b, ok := base[c.Name]
		if !ok || c.Name == anchor {
			continue
		}
		shared++
		allowed := b.NsPerOp * scale * threshold
		ratio := c.NsPerOp / (b.NsPerOp * scale)
		verdict := "ok"
		if c.NsPerOp > allowed {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(&sb, "  %-45s %12.0f -> %12.0f ns/op  x%.2f  %s\n",
			c.Name, b.NsPerOp*scale, c.NsPerOp, ratio, verdict)
	}
	if shared == 0 {
		fmt.Fprintf(&sb, "  no benchmarks shared with the baseline\n")
	}
	return sb.String(), regressed
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
