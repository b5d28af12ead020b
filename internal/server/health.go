package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"codepack/internal/obs"
)

// HealthSummary is one node's answer to GET /internal/v1/health: the
// operational signals a fleet view needs — queue pressure, cache
// occupancy, membership, and the SLO burn snapshot — small enough to
// pull from every member on each /debug/cluster request.
type HealthSummary struct {
	Self          string         `json:"self"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Queues        map[string]int `json:"queue_depth"`
	Cache         cacheStats     `json:"cache"`

	// Cluster fields are zero for a standalone node.
	RingEpoch uint64   `json:"ring_epoch,omitempty"`
	Members   []string `json:"members,omitempty"`
	ReplQueue int      `json:"repl_queue_depth,omitempty"`

	// SLO fields are absent when no -slos file is loaded.
	SLOState   string                `json:"slo_state,omitempty"`
	SLOSource  string                `json:"slo_source,omitempty"`
	Objectives []obs.ObjectiveStatus `json:"slo_objectives,omitempty"`

	Profiler *obs.ProfilerStats `json:"profiler,omitempty"`
}

// healthSummary assembles this node's own summary.
func (s *Server) healthSummary() HealthSummary {
	h := HealthSummary{
		Self:          "standalone",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Queues:        map[string]int{"light": s.light.depth(), "heavy": s.heavy.depth()},
		Cache:         s.cache.stats(),
	}
	if c := s.cluster; c != nil {
		h.Self = c.Self()
		h.RingEpoch = c.RingEpoch()
		h.Members = c.Members()
		h.ReplQueue = c.ReplQueueDepth()
	}
	if s.slo != nil {
		h.SLOState = s.slo.WorstState().String()
		h.SLOSource = s.slo.Source()
		h.Objectives = s.slo.Status()
	}
	if s.profiler != nil {
		ps := s.profiler.Stats()
		h.Profiler = &ps
	}
	return h
}

// handleInternalHealth serves the node's health summary to peers. It
// is registered behind instrumentInternal, so only requests signed
// with the cluster auth key reach it.
func (s *Server) handleInternalHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.healthSummary())
}

// sloDebugResponse is the body of GET /debug/slo.
type sloDebugResponse struct {
	Source     string                `json:"source"`
	State      string                `json:"state"`
	Objectives []obs.ObjectiveStatus `json:"objectives"`
}

// handleDebugSLO serves this node's SLO burn state: every objective
// with its windowed burn rates, remaining error budget, and alert
// state. 404 when no SLO config is loaded, mirroring the trace ring.
func (s *Server) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		s.writeError(w, &httpError{code: http.StatusNotFound, msg: "slo tracking is disabled (start with -slos)"})
		return
	}
	objs := s.slo.Status()
	if objs == nil {
		objs = []obs.ObjectiveStatus{}
	}
	s.writeJSON(w, http.StatusOK, sloDebugResponse{
		Source:     s.slo.Source(),
		State:      s.slo.WorstState().String(),
		Objectives: objs,
	})
}

// clusterNodeReport is one member's slot in the /debug/cluster answer.
type clusterNodeReport struct {
	URL     string         `json:"url"`
	Err     string         `json:"error,omitempty"`
	Summary *HealthSummary `json:"summary,omitempty"`
}

// clusterReport is the body of GET /debug/cluster: the local node's
// summary plus one entry per ring member, fetched live over the signed
// internal health endpoint.
type clusterReport struct {
	Self       string              `json:"self"`
	Total      int                 `json:"total"`
	Reachable  int                 `json:"reachable"`
	WorstState string              `json:"worst_state"`
	Nodes      []clusterNodeReport `json:"nodes"`
}

// stateRank orders alert states for cross-node aggregation; unknown
// or absent states rank as healthy.
func stateRank(state string) int {
	switch state {
	case "page":
		return 2
	case "warn":
		return 1
	}
	return 0
}

// handleDebugCluster merges health summaries from every live ring
// member into one fleet view. The local node answers from memory;
// peers are queried concurrently over the signed internal endpoint,
// and an unreachable member is reported with its error rather than
// failing the whole view. Standalone nodes get a self-only report.
func (s *Server) handleDebugCluster(w http.ResponseWriter, r *http.Request) {
	self := s.healthSummary()
	rep := clusterReport{
		Self:       self.Self,
		WorstState: self.SLOState,
		Nodes:      []clusterNodeReport{{URL: self.Self, Summary: &self}},
	}
	if s.cluster != nil {
		var (
			mu sync.Mutex
			wg sync.WaitGroup
		)
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		defer cancel()
		for _, m := range s.cluster.Members() {
			if m == s.cluster.Self() {
				continue
			}
			wg.Add(1)
			go func(member string) {
				defer wg.Done()
				node := clusterNodeReport{URL: member}
				body, err := s.cluster.FetchHealth(ctx, member)
				if err == nil {
					var sum HealthSummary
					if derr := json.Unmarshal(body, &sum); derr != nil {
						err = derr
					} else {
						node.Summary = &sum
					}
				}
				if err != nil {
					node.Err = err.Error()
				}
				mu.Lock()
				rep.Nodes = append(rep.Nodes, node)
				mu.Unlock()
			}(m)
		}
		wg.Wait()
	}
	sort.Slice(rep.Nodes, func(i, j int) bool { return rep.Nodes[i].URL < rep.Nodes[j].URL })
	worst := stateRank(rep.WorstState)
	for _, n := range rep.Nodes {
		if n.Summary != nil {
			rep.Reachable++
			if r := stateRank(n.Summary.SLOState); r > worst {
				worst = r
				rep.WorstState = n.Summary.SLOState
			}
		}
	}
	rep.Total = len(rep.Nodes)
	s.writeJSON(w, http.StatusOK, rep)
}
