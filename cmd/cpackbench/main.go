// Command cpackbench drives a cpackd instance with a calibrated scenario
// load and reports latency, throughput, status mix and server-side cache
// behaviour — the proof harness behind the repo's BENCH_<n>.json
// trajectory.
//
// Usage:
//
//	cpackbench -list                                     # scenario catalogue
//	cpackbench -scenario zipfian -qps 500 -duration 30s  # one scenario, human summary
//	cpackbench -addr http://host:8321 -scenario all -json
//	cpackbench -trajectory 7 -out BENCH_7.json           # all scenarios + codec microbench
//	cpackbench -cluster 3 -churn-interval 1s -scenario churn
//
// With no -addr, cpackbench boots a private in-process cpackd on a
// loopback port and drives that, so a single command measures a known
// configuration; point -addr at a running daemon (or cluster member) to
// measure a real deployment.
//
// With -cluster N, cpackbench instead builds cpackd and boots N real
// processes as a replicated warm-cache cluster (-cluster-replicas per
// digest), drives them round-robin, and sums their metrics. Adding
// -churn-interval stops one member at a time mid-run — alternating a
// SIGKILL crash with a graceful SIGTERM leave — and restarts it, so the
// report's warm-hit ratio measures the replica walk, anti-entropy and
// the graceful-leave hand-off under member churn. A -trajectory run
// with -cluster set appends one such churn report to the document.
//
// The runner is open-loop and coordinated-omission-aware: arrivals follow
// the fixed -qps schedule and every latency is measured from the intended
// send time, so a server stall is charged to each request it delayed (see
// internal/loadgen).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"codepack/internal/loadgen"
	"codepack/internal/server"
	"codepack/internal/tenant"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cpackbench:", err)
		var uerr usageError
		if errors.As(err, &uerr) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

type usageError string

func (e usageError) Error() string { return string(e) }

// microBenchPattern selects the codec microbenchmarks a trajectory folds
// in: encode and decode throughput, the reference-vs-fast decoder split
// and the pooled serve-path decode, plus the served path cold and warm.
const microBenchPattern = "CompressThroughput|DecompressThroughput|DecodeThroughput|DecodePooled|ServerCompress"

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cpackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "", "cpackd base URL; empty boots a private in-process cpackd")
		scenario   = fs.String("scenario", "zipfian", "scenario name, or \"all\"")
		list       = fs.Bool("list", false, "list scenarios and exit")
		qps        = fs.Float64("qps", 200, "open-loop arrival rate (requests/s)")
		duration   = fs.Duration("duration", 10*time.Second, "measured window")
		warmup     = fs.Duration("warmup", 2*time.Second, "warmup ahead of the measured window")
		conc       = fs.Int("c", 16, "max in-flight requests")
		seed       = fs.Int64("seed", 1, "scenario stream seed (same seed = same request stream)")
		asJSON     = fs.Bool("json", false, "emit machine-readable JSON instead of a summary")
		out        = fs.String("out", "", "write output to this file instead of stdout")
		trajectory = fs.Int("trajectory", 0, "emit a BENCH_<n>.json trajectory document for PR <n>: all scenarios plus codec microbenchmarks")
		micro      = fs.Bool("microbench", true, "include `go test -bench` codec microbenchmarks in the trajectory")
		benchtime  = fs.String("benchtime", "20x", "-benchtime for the folded-in microbenchmarks")
		clusterN   = fs.Int("cluster", 0, "boot this many cpackd processes as a replicated cluster and drive them round-robin (0 = single target)")
		clusterR   = fs.Int("cluster-replicas", 2, "replica count per digest (-replicas) for -cluster members")
		churnEvery = fs.Duration("churn-interval", 0, "with -cluster: stop one member this often mid-run (alternating crash and graceful leave) and restart it")
	)
	if err := fs.Parse(args); err != nil {
		return usageError(err.Error())
	}
	if *list {
		for _, s := range loadgen.Scenarios() {
			fmt.Fprintf(stdout, "%-11s %s\n", s.Name(), s.Describe())
		}
		return nil
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *clusterN > 0 && *addr != "" {
		return usageError("-cluster and -addr are mutually exclusive")
	}
	if *churnEvery > 0 && *clusterN == 0 {
		return usageError("-churn-interval requires -cluster")
	}

	scenarios, err := selectScenarios(*scenario, *trajectory > 0)
	if err != nil {
		return err
	}
	runOpts := loadgen.Options{
		Seed:        *seed,
		QPS:         *qps,
		Duration:    *duration,
		Warmup:      *warmup,
		Concurrency: *conc,
	}
	clusterOpts := clusterOptions{n: *clusterN, replicas: *clusterR, churn: *churnEvery}

	var reports []*loadgen.Report
	if *clusterN > 0 && *trajectory == 0 {
		// Cluster mode: the selected scenarios run against a multi-process
		// cpackd cluster (churning when asked) instead of one target.
		reports, err = runCluster(ctx, scenarios, clusterOpts, runOpts, stderr)
		if err != nil {
			return err
		}
	} else {
		target := *addr
		if target == "" {
			stop, url, err := selfServe()
			if err != nil {
				return fmt.Errorf("start in-process cpackd: %w", err)
			}
			defer stop()
			target = url
			fmt.Fprintf(stderr, "cpackbench: no -addr, driving in-process cpackd at %s\n", target)
		}
		client := loadgen.NewHTTPClient(target)
		for _, sc := range scenarios {
			if len(scenarios) > 1 {
				fmt.Fprintf(stderr, "cpackbench: running %s (%.0f req/s for %v + %v warmup)\n",
					sc.Name(), *qps, *duration, *warmup)
			}
			o := runOpts
			o.Scenario = sc
			o.Executor = client
			o.Metrics = client
			o.Target = target
			rep, err := loadgen.Run(ctx, o)
			if err != nil {
				return fmt.Errorf("scenario %s: %w", sc.Name(), err)
			}
			reports = append(reports, rep)
		}
	}

	// A trajectory folds in one extra churn run against a real replicated
	// cluster when -cluster is set: the single-target catalogue stays the
	// comparable baseline, and the cluster report carries the warm-hit
	// ratio the replication tier is judged by.
	if *trajectory > 0 && *clusterN > 0 {
		churnSc, ok := loadgen.ByName("churn")
		if !ok {
			return fmt.Errorf("churn scenario missing from the catalogue")
		}
		clusterReports, err := runCluster(ctx, []loadgen.Scenario{churnSc}, clusterOpts, runOpts, stderr)
		if err != nil {
			return err
		}
		reports = append(reports, clusterReports...)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if *trajectory > 0 {
		doc := &loadgen.Trajectory{
			Schema:    loadgen.TrajectorySchema,
			PR:        *trajectory,
			GoVersion: runtime.Version(),
			Scenarios: reports,
		}
		if *micro {
			fmt.Fprintf(stderr, "cpackbench: folding in codec microbenchmarks (-bench '%s' -benchtime %s)\n",
				microBenchPattern, *benchtime)
			mb, err := runMicroBench(ctx, *benchtime)
			if err != nil {
				return fmt.Errorf("microbenchmarks: %w", err)
			}
			doc.Micro = mb
		}
		return writeJSON(w, doc)
	}

	if *asJSON {
		if len(reports) == 1 {
			return writeJSON(w, reports[0])
		}
		return writeJSON(w, reports)
	}
	for _, rep := range reports {
		rep.WriteText(w)
	}
	return nil
}

// selectScenarios resolves the -scenario flag; trajectory mode always
// runs the full catalogue.
func selectScenarios(name string, trajectory bool) ([]loadgen.Scenario, error) {
	if trajectory || name == "all" {
		return loadgen.Scenarios(), nil
	}
	s, ok := loadgen.ByName(name)
	if !ok {
		return nil, usageError(fmt.Sprintf("unknown scenario %q (want one of %s, or \"all\")",
			name, strings.Join(loadgen.Names(), ", ")))
	}
	return []loadgen.Scenario{s}, nil
}

// benchTenants builds the in-process server's tenant registry: the two
// bench tenants the "tenants" scenario replays, plus unrestricted
// anonymous access so the single-tenant scenarios run unchanged.
func benchTenants() (*tenant.Registry, error) {
	cfg := fmt.Sprintf("tenant %s key=%s weight=1\ntenant %s key=%s weight=1\nanon\n",
		loadgen.BenchTenantLight, loadgen.BenchTenantLightKey,
		loadgen.BenchTenantHeavy, loadgen.BenchTenantHeavyKey)
	snap, err := tenant.ParseConfig(cfg, "cpackbench-builtin")
	if err != nil {
		return nil, err
	}
	return tenant.NewRegistry(snap), nil
}

// selfServe boots an in-process cpackd on a loopback port, logging
// suppressed so the harness output stays clean. Pool sizes are pinned
// rather than derived from GOMAXPROCS so runs compare across machines —
// in particular, singleflight coalescing under flashcrowd needs more
// than the two light workers the default would give a small box.
func selfServe() (stop func(), url string, err error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg, err := benchTenants()
	if err != nil {
		return nil, "", err
	}
	srv, err := server.New(server.Config{
		Logger:       quiet,
		LightWorkers: 8,
		HeavyWorkers: 2,
		Tenants:      reg,
	})
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop = func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(sctx)
		scancel()
		srv.Close()
	}
	return stop, "http://" + ln.Addr().String(), nil
}

// runMicroBench shells out to `go test -bench` in the module root and
// parses the standard benchmark output, so the trajectory reuses the
// exact benchmarks CI already runs rather than reimplementing them.
func runMicroBench(ctx context.Context, benchtime string) ([]loadgen.MicroBench, error) {
	cmd := exec.CommandContext(ctx, "go", "test", "-run", "xxx",
		"-bench", microBenchPattern, "-benchmem", "-benchtime", benchtime, ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	return loadgen.ParseGoBench(strings.NewReader(string(out)))
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
