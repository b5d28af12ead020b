// Command cpackbench drives cpackd with one of the three load scenarios
// the end-to-end benchmark (perfbench) cannot run, and reports latency,
// goodput, status mix and server-side cache behaviour:
//
//   - flashcrowd: singleflight coalescing of one large in-flight fill;
//   - tenants: weighted-fair admission and per-tenant 429s;
//   - churn: a replicated multi-process cluster's warm-hit rate while
//     members crash and rejoin (the peer tier's ablation tool).
//
// Usage:
//
//	cpackbench -list                                       # scenario catalogue
//	cpackbench -scenario flashcrowd -qps 300 -duration 5s  # human summary
//	cpackbench -addr http://host:8321 -scenario tenants -json
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
// the graceful-leave hand-off under member churn.
//
// The runner is open-loop and coordinated-omission-aware: arrivals follow
// the fixed -qps schedule and every latency is measured from the intended
// send time, so a server stall is charged to each request it delayed (see
// internal/loadgen). End-to-end capacity and latency numbers come from
// perfbench (perfbench/README.md); codec microbenchmarks from
// cmd/benchcompare.
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
	"os/signal"
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

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cpackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "", "cpackd base URL; empty boots a private in-process cpackd")
		scenario   = fs.String("scenario", "churn", "scenario name (see -list)")
		list       = fs.Bool("list", false, "list scenarios and exit")
		qps        = fs.Float64("qps", 200, "open-loop arrival rate (requests/s)")
		duration   = fs.Duration("duration", 10*time.Second, "measured window")
		warmup     = fs.Duration("warmup", 2*time.Second, "warmup ahead of the measured window")
		conc       = fs.Int("c", 16, "max in-flight requests")
		seed       = fs.Int64("seed", 1, "scenario stream seed (same seed = same request stream)")
		asJSON     = fs.Bool("json", false, "emit machine-readable JSON instead of a summary")
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

	sc, ok := loadgen.ByName(*scenario)
	if !ok {
		return usageError(fmt.Sprintf("unknown scenario %q (want one of %s)",
			*scenario, strings.Join(loadgen.Names(), ", ")))
	}
	runOpts := loadgen.Options{
		Scenario:    sc,
		Seed:        *seed,
		QPS:         *qps,
		Duration:    *duration,
		Warmup:      *warmup,
		Concurrency: *conc,
	}

	var rep *loadgen.Report
	var err error
	if *clusterN > 0 {
		// Cluster mode: the scenario runs against a multi-process cpackd
		// cluster (churning when asked) instead of one target.
		opts := clusterOptions{n: *clusterN, replicas: *clusterR, churn: *churnEvery}
		if rep, err = runCluster(ctx, opts, runOpts, stderr); err != nil {
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
		runOpts.Executor = client
		runOpts.Metrics = client
		runOpts.Target = target
		if rep, err = loadgen.Run(ctx, runOpts); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name(), err)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	rep.WriteText(stdout)
	return nil
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
