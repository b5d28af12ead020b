// Package server implements cpackd, the CodePack compression service: an
// HTTP front end over the codec and the paper's timing simulator.
//
// The service is built for sustained concurrent traffic:
//
//   - Two bounded worker pools — light (compress, decompress, verify,
//     bench metadata) and heavy (simulate) — so a burst of long
//     simulations cannot starve cheap codec calls. A full queue sheds
//     load with 429 + Retry-After instead of queueing unboundedly.
//
//   - A content-addressed LRU cache (SHA-256 of the marshalled image ->
//     compressed form): the expensive dictionary build runs once per
//     distinct program, repeats are served from memory. With CacheDir
//     set the cache is durable: each verified entry is a file named by
//     its digest, an eviction removes it, and a restart reads them back
//     (removing torn or corrupt files) so a warm cache survives
//     deploys. See docs/SERVER.md "Persistence".
//
//   - Observability: GET /metrics (Prometheus text or OpenMetrics)
//     publishes request counts by status, cache hit/miss/eviction rates,
//     queue depths, bytes in/out and per-endpoint latency histograms;
//     every request emits one structured access-log line via log/slog.
//
//   - Graceful shutdown: Close drains the pools so admitted work
//     finishes; cmd/cpackd pairs it with http.Server.Shutdown on SIGTERM.
//
//   - A shared warm tier: with Config.Peer set, instances form a
//     consistent-hash cluster over the content digests. A local miss
//     first asks the digest's ring owner (internal/peer) before paying
//     for a compression, new entries replicate asynchronously to their
//     owners, and a restart offers its persisted entries back to the
//     ring. Peer-served payloads are verified word-for-word against the
//     requested program before they are trusted, so a misbehaving peer
//     can never poison a cache. See docs/SERVER.md "Replication".
//
// See docs/SERVER.md for the API contract.
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"codepack"
	"codepack/internal/harness"
	"codepack/internal/obs"
	"codepack/internal/peer"
	"codepack/internal/tenant"
	"codepack/internal/trace"
)

// Defaults for Config zero values, and the request body cap.
const (
	DefaultCacheEntries   = 256
	DefaultMaxInstr       = 8_000_000
	DefaultMaxBodyBytes   = 32 << 20
	DefaultRequestTimeout = 60 * time.Second
	DefaultTraceSlow      = 500 * time.Millisecond
)

// Config parameterizes a Server. The zero value serves with sensible
// defaults.
type Config struct {
	// LightWorkers/LightQueue size the pool serving compress, decompress,
	// verify and bench-metadata requests; HeavyWorkers/HeavyQueue the
	// pool serving simulate. Zero picks a default scaled to GOMAXPROCS;
	// negative queue sizes mean "no queue" (admit only onto an idle
	// worker).
	LightWorkers int
	LightQueue   int
	HeavyWorkers int
	HeavyQueue   int

	// CacheEntries caps the content-addressed compression cache
	// (0 = DefaultCacheEntries, negative disables caching).
	CacheEntries int

	// CacheDir, when non-empty, persists the compression cache there
	// (one file per verified entry, named by its digest) and reloads it
	// on startup. Ignored when caching is disabled.
	CacheDir string

	// MaxInstr caps the committed-instruction budget a simulate request
	// may ask for (0 = DefaultMaxInstr).
	MaxInstr uint64

	// RequestTimeout bounds a request end to end, queue time included
	// (0 = DefaultRequestTimeout, negative disables).
	RequestTimeout time.Duration

	// BenchMaxInstr is the per-run instruction budget of the shared
	// benchmark suite (0 = harness.DefaultMaxInstr).
	BenchMaxInstr uint64

	// Peer, when non-nil, joins this instance to a warm-tier cache
	// cluster (see internal/peer): Peer.Self is this instance's
	// advertised URL and Peer.Peers the other members. Ignored when
	// caching is disabled.
	Peer *peer.Config

	// TraceCapacity bounds the completed-trace ring buffer served at
	// GET /debug/trace/recent (0 = trace.DefaultCapacity, negative
	// disables span tracing entirely).
	TraceCapacity int

	// TraceSlow is the total duration above which a completed request's
	// span tree is logged in full (0 = DefaultTraceSlow, negative
	// disables slow-trace logging).
	TraceSlow time.Duration

	// Tenants is the multi-tenant isolation tier: API keys, per-tenant
	// limits, fair-scheduling weights and the peer-signing cluster key
	// (see internal/tenant). Nil serves in open mode — anonymous
	// callers admitted unlimited, internal endpoints unsigned —
	// preserving the pre-tenancy behaviour.
	Tenants *tenant.Registry

	// SLO, when non-nil, is the burn-rate engine (internal/obs) every
	// finished public request is recorded into. The server starts its
	// evaluation loop, serves its status at GET /debug/slo and as
	// cpackd_slo_* metrics, and triggers a profile capture when an
	// objective pages. Ownership transfers: Close stops the engine.
	SLO *obs.Engine

	// Profile, when non-nil, enables triggered continuous profiling:
	// CPU/heap/goroutine snapshots land in Profile.Dir (a bounded
	// on-disk ring served at /debug/profiles/ on the debug listener)
	// whenever an SLO pages or a slow trace trips TraceSlow.
	Profile *obs.ProfilerConfig

	// Logger receives access and lifecycle logs (nil = slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	procs := runtime.GOMAXPROCS(0)
	if c.LightWorkers == 0 {
		c.LightWorkers = max(2, procs/2)
	}
	if c.LightQueue == 0 {
		c.LightQueue = 64
	} else if c.LightQueue < 0 {
		c.LightQueue = 0
	}
	if c.HeavyWorkers == 0 {
		c.HeavyWorkers = max(1, procs-1)
	}
	if c.HeavyQueue == 0 {
		c.HeavyQueue = 2 * c.HeavyWorkers
	} else if c.HeavyQueue < 0 {
		c.HeavyQueue = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.MaxInstr == 0 {
		c.MaxInstr = DefaultMaxInstr
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.TraceSlow == 0 {
		c.TraceSlow = DefaultTraceSlow
	}
	if c.Tenants == nil {
		c.Tenants = tenant.NewRegistry(nil)
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the cpackd HTTP service. Create with New, expose via Handler,
// and Close on shutdown to drain in-flight work.
type Server struct {
	cfg      Config
	log      *slog.Logger
	light    *pool
	heavy    *pool
	cache    *compCache
	suite    *harness.Suite
	metrics  *metrics
	tracer   *trace.Tracer
	tenants  *tenant.Registry
	slo      *obs.Engine
	profiler *obs.Profiler
	mux      *http.ServeMux

	// Warm-tier state (nil cluster = standalone instance).
	cluster    *peer.Cluster
	flights    flightGroup
	peerCancel context.CancelFunc
	aeDone     chan struct{}

	// testHook, when set (tests only), runs inside every pooled job
	// before the real work, letting tests hold workers busy
	// deterministically.
	testHook func(op string)
}

// New builds a Server and starts its worker pools. With Config.CacheDir
// set it also restores the persisted compression cache, tolerating any
// corruption it finds there; the only error paths are filesystem ones —
// creating or listing the cache directory.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache := newCompCache(cfg.CacheEntries)
	cache.log = cfg.Logger
	if cfg.CacheDir != "" && cfg.CacheEntries > 0 {
		st, recovered, err := openStore(cfg.CacheDir, cfg.Logger)
		if err != nil {
			return nil, fmt.Errorf("server: open cache store: %w", err)
		}
		restored := cache.attachStore(st, recovered, cfg.Logger)
		cfg.Logger.Info("compression cache restored",
			"dir", cfg.CacheDir,
			"entries_restored", restored,
			"records_skipped", st.statsSnapshot().RecordsSkipped,
		)
	}
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		light:   newPool("light", cfg.LightWorkers, cfg.LightQueue),
		heavy:   newPool("heavy", cfg.HeavyWorkers, cfg.HeavyQueue),
		cache:   cache,
		suite:   harness.NewSuite(cfg.BenchMaxInstr),
		metrics: newMetrics(),
		tenants: cfg.Tenants,
		mux:     http.NewServeMux(),
	}
	if cfg.TraceCapacity >= 0 {
		s.tracer = trace.NewTracer(trace.TracerConfig{
			Capacity:    cfg.TraceCapacity,
			OnSpanEnd:   s.metrics.observeStage,
			OnTraceDone: s.traceDone,
		})
	}
	if cfg.Profile != nil {
		p, err := obs.NewProfiler(*cfg.Profile)
		if err != nil {
			s.light.close()
			s.heavy.close()
			s.cache.close()
			return nil, fmt.Errorf("server: profiler: %w", err)
		}
		s.profiler = p
	}
	if cfg.SLO != nil {
		s.slo = cfg.SLO
		// A paging objective is the trigger for evidence capture: snapshot
		// the process before anyone has to ask what it was doing.
		s.slo.SetOnAlert(func(a obs.Alert) {
			if a.To == obs.StatePage {
				s.profiler.Trigger("slo_page_" + a.SLO)
			}
		})
		s.slo.Start()
	}
	s.mux.Handle("POST /v1/compress", s.instrument("compress", s.handleCompress))
	s.mux.Handle("POST /v1/decompress", s.instrument("decompress", s.handleDecompress))
	s.mux.Handle("POST /v1/verify", s.instrument("verify", s.handleVerify))
	s.mux.Handle("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.Handle("GET /v1/bench/{name}", s.instrument("bench", s.handleBench))
	s.mux.Handle("GET /v1/bench", s.instrument("bench_list", s.handleBenchList))
	s.mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	s.mux.Handle("GET /debug/trace/recent", http.HandlerFunc(s.handleTraceRecent))
	s.mux.Handle("GET /debug/slo", http.HandlerFunc(s.handleDebugSLO))
	s.mux.Handle("GET /debug/cluster", http.HandlerFunc(s.handleDebugCluster))
	s.mux.Handle("GET /healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{\"status\":\"ok\"}\n")
	}))
	if cfg.Peer != nil {
		err := errors.New("peer replication requires the compression cache (CacheEntries > 0)")
		if cfg.CacheEntries > 0 {
			err = s.joinCluster(*cfg.Peer)
		}
		if err != nil {
			s.light.close()
			s.heavy.close()
			s.cache.close()
			s.slo.Stop()
			s.profiler.Close()
			return nil, fmt.Errorf("server: join peer cluster: %w", err)
		}
	}
	return s, nil
}

// joinCluster wires the warm tier: the membership layer and ring, the
// peer protocol endpoints, and the anti-entropy loop — one pass at
// startup offering every restored entry back to its ring owner, and one
// pass after every ring change so entries whose owner moved follow it.
func (s *Server) joinCluster(pc peer.Config) error {
	if pc.Logger == nil {
		pc.Logger = s.log
	}
	if pc.Tracer == nil {
		pc.Tracer = s.tracer
	}
	if pc.AuthKey == nil {
		// Outbound peer requests sign with the live cluster key, so a
		// SIGHUP key rotation applies to the next request without a
		// restart.
		pc.AuthKey = s.tenants.ClusterKey
	}
	aeCh := make(chan uint64, 1)
	pc.OnRingChange = func(epoch uint64, members []string) {
		select {
		case aeCh <- epoch:
		default: // a pass is already pending; it will see the newest ring
		}
	}
	cluster, err := peer.NewCluster(pc)
	if err != nil {
		return err
	}
	s.cluster = cluster
	h := peer.NewHandler(s.cache, s.log)
	s.mux.Handle("GET "+peer.CachePathPrefix+"{digest}", s.instrumentInternal("peer_get", h.Get))
	s.mux.Handle("PUT "+peer.CachePathPrefix+"{digest}", s.instrumentInternal("peer_put", h.Put))
	s.mux.Handle("POST "+peer.OfferPath, s.instrumentInternal("peer_offer", h.Offer))
	s.mux.Handle("POST "+peer.JoinPath, s.instrumentInternal("peer_membership", cluster.HandleJoin))
	s.mux.Handle("POST "+peer.HeartbeatPath, s.instrumentInternal("peer_membership", cluster.HandleHeartbeat))
	s.mux.Handle("POST "+peer.LeavePath, s.instrumentInternal("peer_membership", cluster.HandleLeave))
	s.mux.Handle("GET "+peer.HealthPath, s.instrumentInternal("peer_health", s.handleInternalHealth))
	s.log.Info("joined peer cache cluster",
		"self", cluster.Self(), "seeds", len(cluster.Members())-1)

	ctx, cancel := context.WithCancel(context.Background())
	s.peerCancel = cancel
	s.aeDone = make(chan struct{})
	go s.antiEntropyLoop(ctx, aeCh)
	return nil
}

// antiEntropyLoop runs one offer/want pass at startup and one after
// every ring-change signal, so a membership change re-homes every
// locally held digest whose owner moved. Passes are serialized; signals
// arriving mid-pass coalesce into a single follow-up pass that sees the
// newest ring.
func (s *Server) antiEntropyLoop(ctx context.Context, trigger <-chan uint64) {
	defer close(s.aeDone)
	pass := func(reason string, epoch uint64) {
		digests := s.cache.keys()
		if len(digests) == 0 {
			return
		}
		// Each pass is its own background trace; the offer/put spans the
		// peer client opens land under it via the context.
		actx := ctx
		var root *trace.Span
		if s.tracer != nil {
			id := trace.NewID()
			actx = trace.WithID(actx, id)
			actx, root = s.tracer.StartTrace(actx, id, "", "antientropy", "antientropy",
				trace.String("reason", reason),
				trace.Int("digests", len(digests)))
			root.SetAttr("epoch", epoch)
		}
		s.cluster.AntiEntropy(actx, digests, s.cache.Payload)
		root.End()
		s.metrics.aePasses.add(1)
		st := s.cluster.Stats()
		s.log.Info("anti-entropy pass finished",
			"reason", reason,
			"ring_epoch", epoch,
			"local_digests", len(digests),
			"offered", st.OfferedDigests,
			"pushed", st.ReplicationsSent,
			"offer_errors", st.OfferErrors)
	}
	pass("startup", s.cluster.RingEpoch())
	for {
		select {
		case <-ctx.Done():
			return
		case epoch := <-trigger:
			pass("ring-change", epoch)
		}
	}
}

// Handler returns the root handler for the service.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pools — admitted jobs finish, new submissions
// fail with 503 — then flushes the persistent cache (an fsync of every
// entry file and of the directory) if one is configured. Call after
// http.Server.Shutdown so in-flight HTTP requests complete their pooled
// work first.
func (s *Server) Close() {
	if s.cluster != nil {
		// Graceful departure first, while the peer endpoints still
		// answer: hand every locally held digest to its post-departure
		// owner and announce the leave, so warm state survives the exit.
		lctx, lcancel := context.WithTimeout(context.Background(), DefaultRequestTimeout)
		s.cluster.Leave(lctx, s.cache.keys(), s.cache.Payload)
		lcancel()
	}
	if s.peerCancel != nil {
		s.peerCancel()
		<-s.aeDone
	}
	if s.cluster != nil {
		s.cluster.Close()
	}
	s.light.close()
	s.heavy.close()
	s.cache.close()
	s.slo.Stop()
	s.profiler.Close()
}

// --- API types -----------------------------------------------------------

// ProgramRef selects the program a request operates on; exactly one field
// must be set.
type ProgramRef struct {
	// Benchmark names one of the six calibrated workloads (GET /v1/bench
	// lists them).
	Benchmark string `json:"benchmark,omitempty"`
	// Asm is SS32 assembly source, assembled server-side.
	Asm string `json:"asm,omitempty"`
	// ImageB64 is a base64 (standard encoding) program image as produced
	// by (*Image).Marshal / `cpack compress` input format.
	ImageB64 string `json:"image_b64,omitempty"`
}

// CompressRequest is the body of POST /v1/compress.
type CompressRequest struct {
	ProgramRef
}

// CompressResponse is the body of a successful POST /v1/compress.
type CompressResponse struct {
	Name            string  `json:"name"`
	Digest          string  `json:"digest"` // content address (SHA-256 of the image)
	OriginalBytes   int     `json:"original_bytes"`
	CompressedBytes int     `json:"compressed_bytes"`
	Ratio           float64 `json:"ratio"`
	Cached          bool    `json:"cached"`
	CompressedB64   string  `json:"compressed_b64"`
}

// DecompressRequest is the body of POST /v1/decompress.
type DecompressRequest struct {
	// CompressedB64 is a base64 .cpk payload as produced by
	// (*Compressed).Marshal (the compressed_b64 field of a compress
	// response round-trips).
	CompressedB64 string `json:"compressed_b64"`
}

// DecompressResponse is the body of a successful POST /v1/decompress. The
// image carries only the text section: the .cpk format has no data
// segment or entry point.
type DecompressResponse struct {
	Instructions int    `json:"instructions"`
	TextBase     uint32 `json:"text_base"`
	ImageB64     string `json:"image_b64"`
}

// VerifyRequest is the body of POST /v1/verify.
type VerifyRequest struct {
	ProgramRef
}

// VerifyResponse is the body of a successful POST /v1/verify: the program
// compressed, round-tripped through the serialized form and compared
// word-for-word against the original text section.
type VerifyResponse struct {
	OK           bool    `json:"ok"`
	Digest       string  `json:"digest"`
	Instructions int     `json:"instructions"`
	Ratio        float64 `json:"ratio"`
	Cached       bool    `json:"cached"`
}

// SimulateRequest is the body of POST /v1/simulate.
type SimulateRequest struct {
	ProgramRef
	// Arch is a Table 2 machine preset: "1-issue", "4-issue" (default)
	// or "8-issue".
	Arch string `json:"arch,omitempty"`
	// Model is the fetch model: "native", "codepack" (baseline),
	// "optimized" (default) or "software".
	Model string `json:"model,omitempty"`
	// MaxInstr caps committed instructions (0 = suite default; clamped
	// to the server's configured maximum).
	MaxInstr uint64 `json:"max_instr,omitempty"`
}

// SimulateResponse is the body of a successful POST /v1/simulate.
type SimulateResponse struct {
	Program      string  `json:"program"`
	Arch         string  `json:"arch"`
	Model        string  `json:"model"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	IMissRate    float64 `json:"imiss_rate"`
	Ratio        float64 `json:"ratio,omitempty"`
	Cached       bool    `json:"cached"`
}

// BenchResponse is the body of GET /v1/bench/{name}: the calibrated
// workload's static characteristics and compression results.
type BenchResponse struct {
	Name            string  `json:"name"`
	TextBytes       int     `json:"text_bytes"`
	TargetDynamic   uint64  `json:"target_dynamic_instructions"`
	Digest          string  `json:"digest"`
	OriginalBytes   int     `json:"original_bytes"`
	CompressedBytes int     `json:"compressed_bytes"`
	Ratio           float64 `json:"ratio"`
}

// BenchListResponse is the body of GET /v1/bench.
type BenchListResponse struct {
	Benchmarks []string `json:"benchmarks"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// --- request plumbing ----------------------------------------------------

// httpError is a handler failure with its response status. retryAfter,
// when positive, is emitted as a Retry-After header (429 denials carry
// the shed tenant's own backoff).
type httpError struct {
	code       int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

// errInternal answers a request whose pooled work panicked.
var errInternal = &httpError{code: http.StatusInternalServerError, msg: "internal error"}

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// statusWriter captures the status code and byte count of a response.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// countReader counts request-body bytes actually consumed.
type countReader struct {
	r io.ReadCloser
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) Close() error { return c.r.Close() }

// instrument wraps a public endpoint handler with tenant
// authentication and admission (API key -> 401, rate/quota -> 429 with
// the tenant's own Retry-After), the per-request deadline, the
// body-size cap, request-ID tracing, metrics recording (tenant
// labelled) and the structured access log.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	return s.instrumented(name, false, h)
}

// instrumentInternal is instrument for the /internal/v1/* node-to-node
// endpoints: instead of API-key auth it verifies the HMAC cluster
// signature (tenant.InternalHeader) when a cluster key is configured,
// and labels traffic with the reserved "internal" tenant.
func (s *Server) instrumentInternal(name string, h http.HandlerFunc) http.Handler {
	return s.instrumented(name, true, h)
}

func (s *Server) instrumented(name string, internal bool, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		// Accept the caller's request ID (a peer or a tracing client) or
		// mint one; it is echoed on the response, logged, and forwarded
		// on any outbound peer call this request triggers.
		reqID := trace.Sanitize(r.Header.Get(trace.Header))
		if reqID == "" {
			reqID = trace.NewID()
		}
		ctx = trace.WithID(ctx, reqID)
		w.Header().Set(trace.Header, reqID)
		// Open the request's root span. A peer hop carries the sender's
		// span ID so the two nodes' traces stitch together; membership
		// heartbeats are exempt — tracing every gossip round would flush
		// real requests out of the ring.
		var root *trace.Span
		if name != "peer_membership" {
			remoteParent := trace.Sanitize(r.Header.Get(trace.SpanHeader))
			ctx, root = s.tracer.StartTrace(ctx, reqID, remoteParent, name, "handler",
				trace.String("endpoint", name))
		}
		body := &countReader{r: http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)}
		r = r.WithContext(ctx)
		r.Body = body
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}

		// Resolve the caller before any work: internal traffic by
		// cluster signature, public traffic by API key + admission.
		// Denied requests skip the handler but still flow through the
		// common metrics/span/log recording below, tenant-labelled.
		tenantID := tenant.AnonID
		if internal {
			tenantID = tenant.InternalID
			if herr := s.verifyInternalAuth(r); herr != nil {
				s.writeError(sw, herr)
			} else {
				h(sw, r)
			}
		} else {
			tn, herr := s.authenticate(r)
			if tn != nil {
				tenantID = tn.ID
			}
			if herr != nil {
				s.writeError(sw, herr)
			} else {
				r = r.WithContext(tenant.NewContext(r.Context(), tn))
				h(sw, r)
			}
		}

		root.SetAttr("tenant", tenantID)
		root.SetAttr("status", sw.code)
		root.End()
		dur := time.Since(start)
		s.metrics.endpoint(name).record(sw.code, body.n, sw.bytes, dur, reqID)
		s.metrics.tenant(tenantID).record(sw.code, body.n, sw.bytes)
		if !internal {
			s.tenants.AccountBytes(tenantID, body.n+sw.bytes, time.Now())
			s.slo.Record(name, tenantID, sw.code, dur)
		}
		s.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("endpoint", name),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("request_id", reqID),
			slog.String("tenant", tenantID),
			slog.Int("status", sw.code),
			slog.Int64("bytes_in", body.n),
			slog.Int64("bytes_out", sw.bytes),
			slog.Duration("duration", dur),
		)
	})
}

// traceDone is the tracer's OnTraceDone hook: traces slower than the
// configured threshold are logged in full, span tree included, so a
// slow request explains itself without anyone re-driving it.
func (s *Server) traceDone(tr trace.Trace) {
	if s.cfg.TraceSlow <= 0 {
		return
	}
	if tr.DurationMS < float64(s.cfg.TraceSlow)/float64(time.Millisecond) {
		return
	}
	// A slow trace is the other evidence trigger besides an SLO page:
	// capture the process while whatever made it slow may still be going.
	s.profiler.Trigger("slow_trace_" + tr.Endpoint)
	s.log.Warn("slow trace",
		"trace_id", tr.TraceID,
		"endpoint", tr.Endpoint,
		"duration_ms", tr.DurationMS,
		"spans", len(tr.Spans),
		"tree", "\n"+tr.Tree())
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		b = []byte(`{"error":"response encoding failed"}`)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func (s *Server) writeError(w http.ResponseWriter, e *httpError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	s.writeJSON(w, e.code, errorResponse{Error: e.msg})
}

// dispatch runs fn on the given pool under the request tenant's queue
// and weight, and writes fn's result, translating pool conditions to
// statuses: the tenant's queue full -> 429 + that tenant's own
// Retry-After, draining -> 503, deadline -> 503, a panic in fn -> 500.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, p *pool, op string, fn func(ctx context.Context) (any, *httpError)) {
	ctx := r.Context()
	tenantID, weight := tenant.AnonID, 1
	if tn := tenant.FromContext(ctx); tn != nil {
		tenantID, weight = tn.ID, tn.Weight
	}
	var resp any
	var herr *httpError
	// queue-wait measures admission latency: it ends the moment the
	// pooled fn starts running (the second End, for shed/closed paths
	// where the fn never runs, is an idempotent no-op).
	_, qs := trace.Start(ctx, "queue-wait", trace.String("pool", p.name))
	err := p.doAs(ctx, tenantID, weight, func() {
		qs.End()
		// Workers run outside net/http's per-connection recover, so a
		// panic here would end the process: answer 500 and keep serving.
		defer func() {
			if v := recover(); v != nil {
				s.log.Error("panic in pooled work", "op", op, "request_id", trace.ID(ctx),
					"panic", v, "stack", string(debug.Stack()))
				resp, herr = nil, errInternal
			}
		}()
		if s.testHook != nil {
			s.testHook(op)
		}
		resp, herr = fn(ctx)
	})
	qs.End()
	switch {
	case err == nil:
	case errors.Is(err, errSaturated):
		s.metrics.shed.add(1)
		s.metrics.tenantLimited(tenantID, "queue")
		s.writeError(w, &httpError{
			code:       http.StatusTooManyRequests,
			msg:        fmt.Sprintf("%s worker pool saturated for tenant %s, retry later", p.name, tenantID),
			retryAfter: p.retryAfterFor(tenantID),
		})
		return
	case errors.Is(err, errClosed):
		s.writeError(w, &httpError{code: http.StatusServiceUnavailable, msg: "server is shutting down"})
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.timeouts.add(1)
		s.writeError(w, &httpError{code: http.StatusServiceUnavailable, msg: "request deadline exceeded"})
		return
	default: // context.Canceled: client went away; best-effort status
		s.writeError(w, &httpError{code: http.StatusServiceUnavailable, msg: "request canceled"})
		return
	}
	if herr != nil {
		s.writeError(w, herr)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// readJSON decodes the request body into v, reporting malformed input.
func readJSON(r *http.Request, v any) *httpError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("malformed request body: %v", err)
	}
	return nil
}

// resolveImage turns a ProgramRef into a loaded image.
func (s *Server) resolveImage(ctx context.Context, ref ProgramRef) (*codepack.Image, *httpError) {
	set := 0
	for _, f := range []string{ref.Benchmark, ref.Asm, ref.ImageB64} {
		if f != "" {
			set++
		}
	}
	if set != 1 {
		return nil, badRequest("exactly one of benchmark, asm, image_b64 must be set")
	}
	kind := "image_b64"
	switch {
	case ref.Benchmark != "":
		kind = "benchmark"
	case ref.Asm != "":
		kind = "asm"
	}
	_, rs := trace.Start(ctx, "resolve-image", trace.String("kind", kind))
	defer rs.End()
	switch {
	case ref.Benchmark != "":
		b, err := s.suite.BenchContext(ctx, ref.Benchmark)
		if err != nil {
			return nil, &httpError{code: http.StatusNotFound, msg: err.Error()}
		}
		return b.Image, nil
	case ref.Asm != "":
		im, err := codepack.Assemble("request", ref.Asm)
		if err != nil {
			return nil, badRequest("assemble: %v", err)
		}
		return im, nil
	default:
		raw, err := base64.StdEncoding.DecodeString(ref.ImageB64)
		if err != nil {
			return nil, badRequest("image_b64: %v", err)
		}
		im, err := codepack.UnmarshalImage(raw)
		if err != nil {
			return nil, badRequest("image: %v", err)
		}
		return im, nil
	}
}

// compressImage resolves im's compressed form through the tiered
// lookup: local cache, then the warm tier's ring owner, then a local
// compression — with concurrent misses for the same digest coalesced
// into one fill. cached reports whether the response was served without
// running a compression here (a cache hit, a peer hit, or riding a
// coalesced in-flight fill).
func (s *Server) compressImage(ctx context.Context, im *codepack.Image) (comp *codepack.Compressed, digest string, cached bool, herr *httpError) {
	digest = codepack.Digest(im.Marshal())
	_, ls := trace.Start(ctx, "cache-lookup", trace.String("digest", digest[:12]))
	c, ok := s.cache.trusted(digest, im, true)
	if ok {
		ls.SetAttr("outcome", "hit")
		ls.End()
		return c, digest, true, nil
	}
	ls.SetAttr("outcome", "miss")
	ls.End()
	c, cached, follower, herr := s.flights.do(ctx, digest, func(fctx context.Context) (*codepack.Compressed, bool, *httpError) {
		fctx, fs := trace.Start(fctx, "fill")
		defer fs.End()
		return s.fillMiss(fctx, digest, im)
	})
	if follower {
		s.metrics.coalesced.add(1)
	}
	if herr != nil {
		return nil, "", false, herr
	}
	return c, digest, cached, nil
}

// fillMiss is the singleflight leader's path: walk the digest's replica
// set, fall back to compressing locally, and replicate anything new to
// its replica set.
func (s *Server) fillMiss(ctx context.Context, digest string, im *codepack.Image) (*codepack.Compressed, bool, *httpError) {
	// Re-check under the flight: a previous leader may have finished
	// filling this digest between our cache miss and acquiring the key.
	// The probe skips miss accounting — this request's miss was already
	// counted on the way in.
	_, rcs := trace.Start(ctx, "cache-recheck")
	c, ok := s.cache.trusted(digest, im, false)
	if ok {
		rcs.SetAttr("outcome", "hit")
	} else {
		rcs.SetAttr("outcome", "miss")
	}
	rcs.End()
	if ok {
		return c, true, nil
	}
	if s.cluster != nil {
		// The verify callback proves a replica's payload decompresses to
		// exactly the requested program before Fetch trusts it; a failure
		// makes Fetch charge that replica's breaker and walk on to the
		// next one. The verified form is captured so a hit installs it
		// without re-parsing.
		var comp *codepack.Compressed
		_, owner, outcome := s.cluster.Fetch(ctx, digest, func(owner string, payload []byte) bool {
			c, err := codepack.UnmarshalCompressed(im.Name, payload)
			if err == nil && compMatchesImage(c, im) {
				comp = c
				return true
			}
			s.log.Warn("peer payload failed verification, trying next replica",
				"digest", digest, "peer", owner, "err", err)
			return false
		})
		switch outcome {
		case peer.FetchHit:
			s.cache.put(digest, comp)
			s.log.Debug("warm-tier hit", "digest", digest, "peer", owner)
			return comp, true, nil
		case peer.FetchMiss:
			s.metrics.peerMisses.add(1)
		}
	}
	cctx, cs := trace.Start(ctx, "compress", trace.Int("instructions", len(im.Text)))
	comp, err := codepack.CompressContext(cctx, im)
	cs.End()
	if err != nil {
		return nil, false, badRequest("compress: %v", err)
	}
	s.cache.put(digest, comp)
	if s.cluster != nil {
		s.cluster.Replicate(ctx, digest, comp.Marshal())
	}
	return comp, false, nil
}

// --- endpoint handlers ---------------------------------------------------

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	var req CompressRequest
	if herr := readJSON(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	s.dispatch(w, r, s.light, "compress", func(ctx context.Context) (any, *httpError) {
		im, herr := s.resolveImage(ctx, req.ProgramRef)
		if herr != nil {
			return nil, herr
		}
		comp, digest, cached, herr := s.compressImage(ctx, im)
		if herr != nil {
			return nil, herr
		}
		st := comp.Stats()
		return CompressResponse{
			Name:            im.Name,
			Digest:          digest,
			OriginalBytes:   st.OriginalBytes,
			CompressedBytes: st.CompressedBytes(),
			Ratio:           st.Ratio(),
			Cached:          cached,
			CompressedB64:   base64.StdEncoding.EncodeToString(comp.Marshal()),
		}, nil
	})
}

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	var req DecompressRequest
	if herr := readJSON(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	s.dispatch(w, r, s.light, "decompress", func(ctx context.Context) (any, *httpError) {
		raw, err := base64.StdEncoding.DecodeString(req.CompressedB64)
		if err != nil {
			return nil, badRequest("compressed_b64: %v", err)
		}
		comp, err := codepack.UnmarshalCompressed("request", raw)
		if err != nil {
			return nil, badRequest("compressed image: %v", err)
		}
		// Decode into a pooled buffer: the text only lives until the
		// image is marshalled into the response.
		bp := getDecodeBuf()
		defer putDecodeBuf(bp)
		text, err := comp.AppendDecompress((*bp)[:0])
		if text != nil {
			*bp = text
		}
		if err != nil {
			return nil, badRequest("decompress: %v", err)
		}
		im := &codepack.Image{
			Name:     "request",
			Entry:    comp.TextBase,
			TextBase: comp.TextBase,
			Text:     text,
		}
		return DecompressResponse{
			Instructions: len(text),
			TextBase:     comp.TextBase,
			ImageB64:     base64.StdEncoding.EncodeToString(im.Marshal()),
		}, nil
	})
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if herr := readJSON(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	s.dispatch(w, r, s.light, "verify", func(ctx context.Context) (any, *httpError) {
		im, herr := s.resolveImage(ctx, req.ProgramRef)
		if herr != nil {
			return nil, herr
		}
		comp, digest, cached, herr := s.compressImage(ctx, im)
		if herr != nil {
			return nil, herr
		}
		// Round trip through the serialized form, as the hardware would
		// see it, and compare word for word.
		reloaded, err := codepack.UnmarshalCompressed(im.Name, comp.Marshal())
		if err != nil {
			return nil, &httpError{code: http.StatusInternalServerError, msg: fmt.Sprintf("reload: %v", err)}
		}
		if !compMatchesImage(reloaded, im) {
			return nil, &httpError{code: http.StatusInternalServerError, msg: "round trip mismatch"}
		}
		return VerifyResponse{
			OK:           true,
			Digest:       digest,
			Instructions: len(im.Text),
			Ratio:        comp.Stats().Ratio(),
			Cached:       cached,
		}, nil
	})
}

// archByName maps the wire names to the Table 2 presets.
func archByName(name string) (codepack.ArchConfig, bool) {
	switch name {
	case "", "4-issue":
		return codepack.FourIssue(), true
	case "1-issue":
		return codepack.OneIssue(), true
	case "8-issue":
		return codepack.EightIssue(), true
	}
	return codepack.ArchConfig{}, false
}

// modelByName maps the wire names to fetch models.
func modelByName(name string) (codepack.FetchModel, bool) {
	switch name {
	case "native":
		return codepack.NativeModel(), true
	case "codepack", "baseline":
		return codepack.BaselineModel(), true
	case "", "optimized":
		return codepack.OptimizedModel(), true
	case "software":
		return codepack.SoftwareModel(), true
	}
	return codepack.FetchModel{}, false
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if herr := readJSON(r, &req); herr != nil {
		s.writeError(w, herr)
		return
	}
	s.dispatch(w, r, s.heavy, "simulate", func(ctx context.Context) (any, *httpError) {
		cfg, ok := archByName(req.Arch)
		if !ok {
			return nil, badRequest("unknown arch %q (want 1-issue, 4-issue or 8-issue)", req.Arch)
		}
		model, ok := modelByName(req.Model)
		if !ok {
			return nil, badRequest("unknown model %q (want native, codepack, optimized or software)", req.Model)
		}
		im, herr := s.resolveImage(ctx, req.ProgramRef)
		if herr != nil {
			return nil, herr
		}
		cached := false
		if model.Kind != codepack.NativeModel().Kind {
			// Compressed fetch paths need the compressed image; serve it
			// from the content-addressed cache.
			comp, _, hit, herr := s.compressImage(ctx, im)
			if herr != nil {
				return nil, herr
			}
			model.Comp = comp
			cached = hit
		}
		budget := req.MaxInstr
		if budget == 0 {
			budget = s.suite.MaxInstr
		}
		if budget > s.cfg.MaxInstr {
			budget = s.cfg.MaxInstr
		}
		res, err := codepack.SimulateContext(ctx, im, cfg, model, budget)
		if err != nil {
			if ctx.Err() != nil {
				// dispatch translates the context error to 503; returning
				// it here keeps the pooled fn's result unused.
				return nil, &httpError{code: http.StatusServiceUnavailable, msg: err.Error()}
			}
			return nil, badRequest("simulate: %v", err)
		}
		modelName := req.Model
		if modelName == "" {
			modelName = "optimized"
		}
		return SimulateResponse{
			Program:      res.Program,
			Arch:         res.Arch,
			Model:        modelName,
			Instructions: res.Instructions,
			Cycles:       res.Cycles,
			IPC:          res.IPC(),
			IMissRate:    res.IMissRate(),
			Ratio:        res.Ratio,
			Cached:       cached,
		}, nil
	})
}

func (s *Server) handleBench(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.dispatch(w, r, s.light, "bench", func(ctx context.Context) (any, *httpError) {
		b, err := s.suite.BenchContext(ctx, name)
		if err != nil {
			return nil, &httpError{code: http.StatusNotFound, msg: err.Error()}
		}
		st := b.Comp.Stats()
		return BenchResponse{
			Name:            b.Profile.Name,
			TextBytes:       b.Image.TextBytes(),
			TargetDynamic:   b.Profile.TargetDynamic,
			Digest:          codepack.ImageDigest(b.Image),
			OriginalBytes:   st.OriginalBytes,
			CompressedBytes: st.CompressedBytes(),
			Ratio:           st.Ratio(),
		}, nil
	})
}

func (s *Server) handleBenchList(w http.ResponseWriter, r *http.Request) {
	var names []string
	for _, p := range codepack.Benchmarks() {
		names = append(names, p.Name)
	}
	s.writeJSON(w, http.StatusOK, BenchListResponse{Benchmarks: names})
}
