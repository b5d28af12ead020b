package server

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"codepack/internal/trace"
)

// traceRecentResponse is the body of GET /debug/trace/recent.
type traceRecentResponse struct {
	// TotalRecorded counts every trace ever completed, including ones
	// the ring has since evicted.
	TotalRecorded uint64        `json:"total_recorded"`
	Traces        []trace.Trace `json:"traces"`
}

// handleTraceRecent serves the completed-trace ring, newest first.
// Query parameters: min_ms keeps only traces at least that long,
// endpoint filters by the endpoint name the request entered through,
// limit caps the result count.
func (s *Server) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.writeError(w, &httpError{code: http.StatusNotFound, msg: "tracing is disabled"})
		return
	}
	q := r.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			s.writeError(w, badRequest("min_ms: want a non-negative number, got %q", v))
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, badRequest("limit: want a non-negative integer, got %q", v))
			return
		}
		limit = n
	}
	traces := s.tracer.Recent(minDur, q.Get("endpoint"), limit)
	if traces == nil {
		traces = []trace.Trace{}
	}
	s.writeJSON(w, http.StatusOK, traceRecentResponse{
		TotalRecorded: s.tracer.Total(),
		Traces:        traces,
	})
}

// DebugHandler returns the private diagnostics surface: net/http/pprof,
// the trace ring, metrics, SLO and cluster views, and the profile ring.
// Serve it on a separate operator listener (cpackd -debug-addr), on
// loopback or an internal interface, never on the public port:
// profiling endpoints can stall the process, and /debug/pprof/cmdline
// serves the process's argv, flags such as -cluster-key included. The
// public mux deliberately has no pprof routes.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/trace/recent", s.handleTraceRecent)
	mux.HandleFunc("GET /debug/slo", s.handleDebugSLO)
	mux.HandleFunc("GET /debug/cluster", s.handleDebugCluster)
	if s.profiler != nil {
		mux.Handle("GET /debug/profiles/", s.profiler.Handler("/debug/profiles"))
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}
