// Command cpackd serves the CodePack codec and the paper's timing
// simulator over HTTP: compress, decompress, verify and simulate requests
// plus the six calibrated benchmark workloads, with a content-addressed
// compression cache, bounded worker pools and /metrics observability.
//
// Usage:
//
//	cpackd [-addr :8321] [-cache-dir /var/lib/cpackd] [-light-workers N] ...
//
// With -cache-dir set the compression cache is durable: each verified
// entry persists as one checksummed file named by its digest and is
// reloaded on boot, so a restart keeps its warm cache. The daemon drains gracefully on
// SIGINT/SIGTERM: the listener stops, in-flight requests and their pooled
// work complete (up to -drain-timeout), the cache is flushed, then the
// process exits. See docs/SERVER.md for the API contract.
//
// With -peers and -peer-self set, instances form a shared warm cache
// tier: a consistent-hash ring assigns each content digest -replicas
// owning instances (successor-list placement; default 1), cache misses
// walk the replica set in order before compressing locally, and new
// entries replicate asynchronously to every owner. Fetches fall through
// to the next replica when one is down or serves a bad payload. -peers
// is a seed list, not a frozen topology: membership is gossiped,
// instances can join a running cluster, failed members age out of the
// ring, every ring change re-offers held entries to their current
// owners (anti-entropy), and a graceful shutdown hands its entries to
// their new owners. Peer failures degrade to local compression (circuit
// breaker, never a failed request); peer-served bytes are re-verified
// before trusted.
//
// With -tenants set, every public endpoint authenticates a per-tenant
// API key, enforces per-tenant rate limits and rolling byte quotas, and
// admits work into the worker pools through weighted-fair per-tenant
// queues, so one overloaded tenant backpressures only itself. The file's
// cluster-key (or the -cluster-key flag) additionally signs node-to-node
// /internal/v1/* traffic with an HMAC, closing the open-peer-port gap.
// SIGHUP reloads the tenants file without a restart.
//
// With -debug-addr set a second, private listener serves the
// diagnostics surface: net/http/pprof, the span-trace ring
// (/debug/trace/recent, sized by -trace-ring), /metrics, /debug/vars,
// /debug/slo, /debug/cluster and /debug/profiles/. The public port
// never exposes pprof. Requests slower than -trace-slow log their full
// span tree.
//
// With -slos set, every public request is graded against burn-rate
// SLOs (multi-window: 5m/1h fast, 30m/6h slow) and the alert state is
// served at /debug/slo and as cpackd_slo_* metrics; SIGHUP reloads the
// file. With -profile-dir set, a paging objective or a slow trace
// snapshots CPU/heap/goroutine profiles into a bounded on-disk ring
// served at /debug/profiles/. /debug/cluster merges every member's
// signed /internal/v1/health into one fleet view.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"codepack/internal/obs"
	"codepack/internal/peer"
	"codepack/internal/server"
	"codepack/internal/tenant"
	"codepack/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cpackd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cpackd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8321", "listen address")
		debugAddr    = fs.String("debug-addr", "", "private diagnostics listener (pprof, trace ring); empty = disabled")
		traceSlow    = fs.Duration("trace-slow", server.DefaultTraceSlow, "log the full span tree of requests slower than this (0 disables)")
		lightWorkers = fs.Int("light-workers", 0, "codec worker goroutines (0 = auto)")
		lightQueue   = fs.Int("light-queue", 0, "codec queue capacity (0 = default, <0 none)")
		heavyWorkers = fs.Int("heavy-workers", 0, "simulation worker goroutines (0 = auto)")
		heavyQueue   = fs.Int("heavy-queue", 0, "simulation queue capacity (0 = default, <0 none)")
		cacheEntries = fs.Int("cache", 0, "compression cache entries (0 = default, <0 disable)")
		cacheDir     = fs.String("cache-dir", "", "persist the compression cache here (empty = memory only)")
		maxInstr     = fs.Uint64("max-instr", 0, "per-request instruction budget cap (0 = default)")
		timeout      = fs.Duration("timeout", 0, "per-request deadline (0 = default)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "shutdown drain deadline")
		logJSON      = fs.Bool("log-json", false, "emit JSON logs instead of text")
		logLevel     = fs.String("log-level", "info", "log level: debug, info, warn, error")
		peers        = fs.String("peers", "", "comma-separated seed peer base URLs for the warm-cache cluster")
		peerSelf     = fs.String("peer-self", "", "this instance's advertised base URL (required with -peers)")
		peerTimeout  = fs.Duration("peer-timeout", 0, "per-request peer timeout (0 = default)")
		peerHB       = fs.Duration("peer-heartbeat", 0, "membership heartbeat interval (0 = default)")
		peerSuspect  = fs.Duration("peer-suspect-after", 0, "silence before a member is suspected (0 = default)")
		peerDead     = fs.Duration("peer-dead-after", 0, "silence before a suspect is declared dead (0 = default)")
		replicas     = fs.Int("replicas", 0, "cluster replicas per digest (0 = default of 1)")
		tenantsFile  = fs.String("tenants", "", "tenant config file (API keys, weights, quotas); SIGHUP reloads it")
		clusterKey   = fs.String("cluster-key", "", "HMAC key signing internal peer traffic (overrides the tenants file's cluster-key)")
		slosFile     = fs.String("slos", "", "SLO config file (burn-rate objectives); SIGHUP reloads it")
		traceRing    = fs.Int("trace-ring", trace.DefaultCapacity, "completed-trace ring capacity at /debug/trace/recent (<=0 disables tracing)")
		profileDir   = fs.String("profile-dir", "", "capture triggered CPU/heap/goroutine profiles into this directory (bounded ring; empty = disabled)")
		profileKeep  = fs.Int("profile-keep", 0, "triggered profile sets retained in -profile-dir (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, opts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, opts)
	}
	log := slog.New(handler)

	cfg := server.Config{
		LightWorkers:   *lightWorkers,
		LightQueue:     *lightQueue,
		HeavyWorkers:   *heavyWorkers,
		HeavyQueue:     *heavyQueue,
		CacheEntries:   *cacheEntries,
		CacheDir:       *cacheDir,
		MaxInstr:       *maxInstr,
		RequestTimeout: *timeout,
		TraceSlow:      *traceSlow,
		TraceCapacity:  *traceRing,
		Logger:         log,
	}
	if *traceSlow == 0 {
		cfg.TraceSlow = -1 // the user asked for no slow-trace logging
	}
	if *traceRing <= 0 {
		cfg.TraceCapacity = -1 // the user asked for no tracing
	}

	// SLOs and triggered profiling: -slos declares burn-rate objectives
	// the server grades every public request against; -profile-dir makes
	// a page-level breach (or a slow trace) snapshot the process into a
	// bounded on-disk profile ring.
	var sloEng *obs.Engine
	if *slosFile != "" {
		snap, err := obs.LoadFile(*slosFile)
		if err != nil {
			return fmt.Errorf("load -slos: %w", err)
		}
		sloEng = obs.NewEngine(snap, obs.EngineConfig{Logger: log})
		cfg.SLO = sloEng
		log.Info("slo config loaded", "source", snap.Source, "objectives", len(snap.Objectives))
	}
	if *profileDir != "" {
		cfg.Profile = &obs.ProfilerConfig{
			Dir:         *profileDir,
			MaxCaptures: *profileKeep,
			Logger:      log,
		}
	}

	// Tenant isolation: -tenants declares API keys, weights and quotas;
	// -cluster-key turns on signed peer traffic even without a tenants
	// file. Either flag builds a registry; neither keeps open mode.
	loadTenants := func() (*tenant.Snapshot, error) {
		snap := tenant.OpenSnapshot()
		if *tenantsFile != "" {
			var err error
			if snap, err = tenant.LoadFile(*tenantsFile); err != nil {
				return nil, err
			}
		}
		if *clusterKey != "" {
			snap.ClusterKey = []byte(*clusterKey)
		}
		return snap, nil
	}
	var reg *tenant.Registry
	if *tenantsFile != "" || *clusterKey != "" {
		snap, err := loadTenants()
		if err != nil {
			return fmt.Errorf("load -tenants: %w", err)
		}
		reg = tenant.NewRegistry(snap)
		cfg.Tenants = reg
		log.Info("tenant config loaded", "source", snap.Source,
			"tenants", len(snap.ByID), "signed_peers", len(snap.ClusterKey) > 0)
	}
	if *peers != "" || *peerSelf != "" {
		if *peers == "" || *peerSelf == "" {
			return errors.New("-peers and -peer-self must be set together")
		}
		var members []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				members = append(members, p)
			}
		}
		cfg.Peer = &peer.Config{
			Self:              *peerSelf,
			Peers:             members,
			FetchTimeout:      *peerTimeout,
			HeartbeatInterval: *peerHB,
			SuspectAfter:      *peerSuspect,
			DeadAfter:         *peerDead,
			ReplicationFactor: *replicas,
		}
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}

	// Listen explicitly so ":0" reports the kernel-assigned port in the
	// startup log (the restart tests depend on it).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The diagnostics listener (pprof, the trace ring, metrics) is a
	// separate server on a separate address — typically loopback — so
	// profiling never rides the public port.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{
			Handler:           s.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Info("cpackd debug listening", "addr", dln.Addr().String())
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Warn("debug listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP hot-reloads the tenants and SLO files: new keys, weights,
	// quotas and objectives apply to the next request; objectives whose
	// shape is unchanged keep their accrued error-budget history; a parse
	// error in either file keeps that file's old config serving.
	if (reg != nil && *tenantsFile != "") || sloEng != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				if reg != nil && *tenantsFile != "" {
					snap, err := loadTenants()
					if err != nil {
						log.Warn("tenant config reload failed; keeping previous config", "err", err)
					} else {
						reg.Reload(snap)
						log.Info("tenant config reloaded", "source", snap.Source, "tenants", len(snap.ByID))
					}
				}
				if sloEng != nil {
					snap, err := obs.LoadFile(*slosFile)
					if err != nil {
						log.Warn("slo config reload failed; keeping previous config", "err", err)
					} else {
						sloEng.Reload(snap)
						log.Info("slo config reloaded", "source", snap.Source, "objectives", len(snap.Objectives))
					}
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Info("cpackd listening", "addr", ln.Addr().String())
		errCh <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case <-ctx.Done():
	}

	log.Info("shutting down: draining in-flight requests", "timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Warn("shutdown incomplete", "err", err)
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	// HTTP requests are done (or abandoned); now drain the worker pools
	// and flush the persistent cache.
	s.Close()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Info("cpackd stopped")
	return nil
}
