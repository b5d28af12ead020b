package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Exposition content types. /metrics negotiates between the classic
// Prometheus text format and OpenMetrics 1.0: an Accept header naming
// application/openmetrics-text gets OpenMetrics — which is the only
// format that can carry exemplars — everything else gets the classic
// format unchanged.
const (
	contentTypeProm = "text/plain; version=0.0.4; charset=utf-8"
	contentTypeOM   = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// wantsOpenMetrics inspects the Accept header for an OpenMetrics media
// type. Plain prefix matching over the comma-separated alternatives is
// enough here: scrapers send the media type verbatim, and anything
// mangled safely falls back to the classic format.
func wantsOpenMetrics(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if mt == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

// expoWriter renders metric families in whichever exposition format the
// scrape negotiated. It owns the two formats' differences: OpenMetrics
// counter families are named without their _total suffix in HELP/TYPE
// lines, histogram buckets may carry exemplars, and the body ends with
// an EOF marker.
type expoWriter struct {
	w  io.Writer
	om bool
}

// family emits the HELP/TYPE header for one metric family. name is the
// full sample name (counters keep their _total suffix here).
func (x *expoWriter) family(name, typ, help string) {
	fam := name
	if x.om && typ == "counter" {
		fam = strings.TrimSuffix(fam, "_total")
	}
	fmt.Fprintf(x.w, "# HELP %s %s\n# TYPE %s %s\n", fam, help, fam, typ)
}

func (x *expoWriter) sample(name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(x.w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(x.w, "%s{%s} %s\n", name, labels, value)
}

func (x *expoWriter) counter(name, labels string, v uint64) {
	x.sample(name, labels, strconv.FormatUint(v, 10))
}

func (x *expoWriter) gauge(name, labels string, v float64) {
	x.sample(name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

func (x *expoWriter) gaugeInt(name, labels string, v int64) {
	x.sample(name, labels, strconv.FormatInt(v, 10))
}

// histogram renders one histogram series: cumulative buckets, sum and
// count. In OpenMetrics mode, buckets whose exemplar slot is populated
// carry it as "# {trace_id=...} value timestamp" — the link from a
// latency spike to its span tree in /debug/trace/recent.
func (x *expoWriter) histogram(name, labels string, snap histSnapshot, ex [numBuckets + 1]*exemplar) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i := 0; i <= numBuckets; i++ {
		cum += snap.Counts[i]
		le := "+Inf"
		if i < numBuckets {
			le = strconv.FormatFloat(latencyBuckets[i], 'g', -1, 64)
		}
		fmt.Fprintf(x.w, "%s_bucket{%s%sle=%q} %d", name, labels, sep, le, cum)
		if x.om && ex[i] != nil {
			fmt.Fprintf(x.w, " # {trace_id=%q} %s %s",
				ex[i].TraceID,
				strconv.FormatFloat(ex[i].Value, 'g', -1, 64),
				strconv.FormatFloat(float64(ex[i].Time.UnixNano())/1e9, 'f', 3, 64))
		}
		fmt.Fprintln(x.w)
	}
	if labels == "" {
		fmt.Fprintf(x.w, "%s_sum %g\n", name, snap.Sum)
		fmt.Fprintf(x.w, "%s_count %d\n", name, snap.N)
	} else {
		fmt.Fprintf(x.w, "%s_sum{%s} %g\n", name, labels, snap.Sum)
		fmt.Fprintf(x.w, "%s_count{%s} %d\n", name, labels, snap.N)
	}
}

// eof terminates the exposition (OpenMetrics requires the marker).
func (x *expoWriter) eof() {
	if x.om {
		io.WriteString(x.w, "# EOF\n")
	}
}

// handleMetrics renders the full exposition in the negotiated format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	x := &expoWriter{w: w, om: wantsOpenMetrics(r)}
	if x.om {
		w.Header().Set("Content-Type", contentTypeOM)
	} else {
		w.Header().Set("Content-Type", contentTypeProm)
	}

	x.family("cpackd_uptime_seconds", "gauge", "Time since the server started.")
	x.gauge("cpackd_uptime_seconds", "", time.Since(m.start).Seconds())

	x.family("cpackd_requests_total", "counter", "Requests served, by endpoint and status code.")
	names := m.endpointNames()
	for _, name := range names {
		e := m.endpoint(name)
		codes := e.codes()
		sorted := make([]int, 0, len(codes))
		for c := range codes {
			sorted = append(sorted, c)
		}
		sort.Ints(sorted)
		for _, c := range sorted {
			x.counter("cpackd_requests_total", fmt.Sprintf("endpoint=%q,code=\"%d\"", name, c), codes[c])
		}
	}

	x.family("cpackd_request_duration_seconds", "histogram", "Request latency, by endpoint.")
	for _, name := range names {
		h := &m.endpoint(name).latency
		x.histogram("cpackd_request_duration_seconds", fmt.Sprintf("endpoint=%q", name),
			h.snapshot(), h.exemplarView())
	}

	x.family("cpackd_bytes_total", "counter", "Request and response payload bytes, by endpoint.")
	for _, name := range names {
		e := m.endpoint(name)
		x.counter("cpackd_bytes_total", fmt.Sprintf("endpoint=%q,direction=\"in\"", name), e.bytesIn.value())
		x.counter("cpackd_bytes_total", fmt.Sprintf("endpoint=%q,direction=\"out\"", name), e.bytesOut.value())
	}

	cs := s.cache.stats()
	x.family("cpackd_cache_hits_total", "counter", "Content-addressed cache hits.")
	x.counter("cpackd_cache_hits_total", "", cs.Hits)
	x.family("cpackd_cache_misses_total", "counter", "Content-addressed cache misses.")
	x.counter("cpackd_cache_misses_total", "", cs.Misses)
	x.family("cpackd_cache_evictions_total", "counter", "Entries evicted from the cache.")
	x.counter("cpackd_cache_evictions_total", "", cs.Evictions)
	x.family("cpackd_cache_entries", "gauge", "Resident cache entries.")
	x.gaugeInt("cpackd_cache_entries", "", int64(cs.Entries))
	x.family("cpackd_cache_bytes", "gauge", "Resident compressed bytes.")
	x.gaugeInt("cpackd_cache_bytes", "", cs.Bytes)
	x.family("cpackd_cache_unverified_entries", "gauge", "Quarantined replicated entries awaiting verification.")
	x.gaugeInt("cpackd_cache_unverified_entries", "", int64(cs.Unverified))

	x.family("cpackd_compress_coalesced_total", "counter", "Requests served by riding another request's in-flight compression.")
	x.counter("cpackd_compress_coalesced_total", "", m.coalesced.value())

	if stages := m.stageNames(); len(stages) > 0 {
		x.family("cpackd_stage_duration_seconds", "histogram", "Pipeline-stage duration, by traced span name.")
		for _, name := range stages {
			h := m.stage(name)
			x.histogram("cpackd_stage_duration_seconds", fmt.Sprintf("stage=%q", name),
				h.snapshot(), h.exemplarView())
		}
	}
	if s.tracer != nil {
		x.family("cpackd_traces_recorded_total", "counter", "Completed traces recorded into the trace ring (evicted ones included).")
		x.counter("cpackd_traces_recorded_total", "", s.tracer.Total())
		x.family("cpackd_traces_evicted_total", "counter", "Recorded traces overwritten by newer ones in the ring.")
		x.counter("cpackd_traces_evicted_total", "", s.tracer.Evicted())
		x.family("cpackd_trace_ring_capacity", "gauge", "Configured trace ring size (-trace-ring).")
		x.gaugeInt("cpackd_trace_ring_capacity", "", int64(s.tracer.Capacity()))
	}

	writeRuntimeMetrics(x)

	if s.slo != nil {
		x.family("cpackd_slo_state", "gauge", "SLO alert state: 0 ok, 1 warn, 2 page.")
		statuses := s.slo.Status()
		for _, st := range statuses {
			x.gaugeInt("cpackd_slo_state", fmt.Sprintf("slo=%q", st.Name), int64(sloStateValue(st.State)))
		}
		x.family("cpackd_slo_burn_rate", "gauge", "Error-budget burn rate per SLO and window (1 = spend exactly the budget over the window).")
		for _, st := range statuses {
			for _, b := range st.Burn {
				x.gauge("cpackd_slo_burn_rate", fmt.Sprintf("slo=%q,window=%q", st.Name, b.Window), b.Burn)
			}
		}
		x.family("cpackd_slo_budget_remaining", "gauge", "Fraction of the error budget left over the SLO's accounting window (negative = overspent).")
		for _, st := range statuses {
			x.gauge("cpackd_slo_budget_remaining", fmt.Sprintf("slo=%q", st.Name), st.BudgetRemaining)
		}
		x.family("cpackd_slo_requests_total", "counter", "Requests counted against each SLO over its budget window, by outcome.")
		for _, st := range statuses {
			x.counter("cpackd_slo_requests_total", fmt.Sprintf("slo=%q,outcome=\"good\"", st.Name), st.Good)
			x.counter("cpackd_slo_requests_total", fmt.Sprintf("slo=%q,outcome=\"bad\"", st.Name), st.Bad)
		}
		x.family("cpackd_slo_transitions_total", "counter", "Alert state entries per SLO, by severity.")
		for _, st := range statuses {
			x.counter("cpackd_slo_transitions_total", fmt.Sprintf("slo=%q,to=\"warn\"", st.Name), st.Warns)
			x.counter("cpackd_slo_transitions_total", fmt.Sprintf("slo=%q,to=\"page\"", st.Name), st.Pages)
		}
	}

	if s.profiler != nil {
		ps := s.profiler.Stats()
		x.family("cpackd_profile_triggers_total", "counter", "Profile captures requested (alerts + slow traces).")
		x.counter("cpackd_profile_triggers_total", "", ps.Triggered)
		x.family("cpackd_profile_captures_total", "counter", "Profile capture sets written to the on-disk ring.")
		x.counter("cpackd_profile_captures_total", "", ps.Captured)
		x.family("cpackd_profile_dropped_total", "counter", "Profile triggers dropped (capture in flight or cooldown).")
		x.counter("cpackd_profile_dropped_total", "", ps.Dropped)
		x.family("cpackd_profile_evicted_total", "counter", "Capture sets evicted from the on-disk ring.")
		x.counter("cpackd_profile_evicted_total", "", ps.Evicted)
		x.family("cpackd_profile_retained", "gauge", "Capture sets currently on disk.")
		x.gaugeInt("cpackd_profile_retained", "", int64(ps.Retained))
	}

	if c := s.cluster; c != nil {
		st := c.Stats()
		x.family("cpackd_peer_hits_total", "counter", "Cache fills served by a peer (verified).")
		x.counter("cpackd_peer_hits_total", "", st.FetchHits)
		x.family("cpackd_peer_misses_total", "counter", "Warm-tier lookups the owner answered empty.")
		x.counter("cpackd_peer_misses_total", "", m.peerMisses.value())
		x.family("cpackd_peer_errors_total", "counter", "Peer fetch failures, breaker skips and failed payload verifications.")
		x.counter("cpackd_peer_errors_total", "", m.peerErrors.value())
		x.family("cpackd_peer_replications_total", "counter", "Entries pushed to their ring owner (async replication + anti-entropy).")
		x.counter("cpackd_peer_replications_total", "", st.ReplicationsSent)
		x.family("cpackd_peer_replications_dropped_total", "counter", "Replication jobs dropped because the queue was full.")
		x.counter("cpackd_peer_replications_dropped_total", "", st.ReplicationsDropped)
		x.family("cpackd_peer_offered_digests_total", "counter", "Digests offered to ring owners during anti-entropy.")
		x.counter("cpackd_peer_offered_digests_total", "", st.OfferedDigests)
		x.family("cpackd_peer_members", "gauge", "Ring members in the current view (including self).")
		x.gaugeInt("cpackd_peer_members", "", int64(len(c.Members())))
		x.family("cpackd_peer_ring_epoch", "gauge", "Membership version the current ring reflects.")
		x.counter("cpackd_peer_ring_epoch", "", c.RingEpoch())
		x.family("cpackd_peer_ring_changes_total", "counter", "Ring rebuilds driven by membership changes.")
		x.counter("cpackd_peer_ring_changes_total", "", st.RingChanges)
		x.family("cpackd_peer_antientropy_passes_total", "counter", "Anti-entropy passes completed (startup + ring changes).")
		x.counter("cpackd_peer_antientropy_passes_total", "", m.aePasses.value())
		x.family("cpackd_peer_heartbeats_total", "counter", "Successful membership gossip exchanges sent.")
		x.counter("cpackd_peer_heartbeats_total", "", st.Heartbeats)
		x.family("cpackd_peer_repl_queue_depth", "gauge", "Replication jobs waiting for a worker.")
		x.gaugeInt("cpackd_peer_repl_queue_depth", "", int64(c.ReplQueueDepth()))
		x.family("cpackd_peer_repl_queue_age_seconds", "gauge", "Age of the oldest still-queued replication job.")
		x.gauge("cpackd_peer_repl_queue_age_seconds", "", c.ReplQueueOldestAge().Seconds())
		x.family("cpackd_peer_replica_factor", "gauge", "Configured replicas per digest (R).")
		x.gaugeInt("cpackd_peer_replica_factor", "", int64(c.ReplicationFactor()))
		x.family("cpackd_peer_replica_fallthroughs_total", "counter", "Warm-tier hits served by a later replica after the first choice failed.")
		x.counter("cpackd_peer_replica_fallthroughs_total", "", st.ReplicaFallthroughs)
		x.family("cpackd_peer_breaker_state", "gauge", "Per-peer breaker state: 0 closed, 1 half-open, 2 open.")
		health := c.Health()
		for _, h := range health {
			state := 0
			switch h.State {
			case "half-open":
				state = 1
			case "open":
				state = 2
			}
			x.gaugeInt("cpackd_peer_breaker_state", fmt.Sprintf("peer=%q", h.URL), int64(state))
		}
		x.family("cpackd_peer_breaker_opens_total", "counter", "Times each peer's breaker has opened.")
		for _, h := range health {
			x.counter("cpackd_peer_breaker_opens_total", fmt.Sprintf("peer=%q", h.URL), h.Opens)
		}
		x.family("cpackd_peer_member_state", "gauge", "Per-peer membership state: 0 alive, 1 suspect, 2 dead, 3 left.")
		for _, h := range health {
			ms := 0
			switch h.Member {
			case "suspect":
				ms = 1
			case "dead":
				ms = 2
			case "left":
				ms = 3
			}
			x.gaugeInt("cpackd_peer_member_state", fmt.Sprintf("peer=%q", h.URL), int64(ms))
		}
	}

	if st := s.cache.store; st != nil {
		ss := st.statsSnapshot()
		x.family("cpackd_cache_persist_restored_entries", "gauge", "Cache entries restored from their entry files at startup.")
		x.gaugeInt("cpackd_cache_persist_restored_entries", "", int64(ss.RestoredEntries))
		x.family("cpackd_cache_persist_records_skipped_total", "counter", "Damaged entry files removed during recovery.")
		x.counter("cpackd_cache_persist_records_skipped_total", "", ss.RecordsSkipped)
		x.family("cpackd_cache_persist_appends_total", "counter", "Entry files written.")
		x.counter("cpackd_cache_persist_appends_total", "", ss.Appends)
		x.family("cpackd_cache_persist_append_errors_total", "counter", "Entry file writes and removals that failed.")
		x.counter("cpackd_cache_persist_append_errors_total", "", ss.AppendErrors)
	}

	if tenants := m.tenantNames(); len(tenants) > 0 {
		x.family("cpackd_tenant_requests_total", "counter", "Requests served, by tenant and status code.")
		for _, id := range tenants {
			codes := m.tenant(id).codes()
			sorted := make([]int, 0, len(codes))
			for c := range codes {
				sorted = append(sorted, c)
			}
			sort.Ints(sorted)
			for _, c := range sorted {
				x.counter("cpackd_tenant_requests_total", fmt.Sprintf("tenant=%q,code=\"%d\"", id, c), codes[c])
			}
		}
		x.family("cpackd_tenant_bytes_total", "counter", "Request and response payload bytes, by tenant.")
		for _, id := range tenants {
			t := m.tenant(id)
			x.counter("cpackd_tenant_bytes_total", fmt.Sprintf("tenant=%q,direction=\"in\"", id), t.bytesIn.value())
			x.counter("cpackd_tenant_bytes_total", fmt.Sprintf("tenant=%q,direction=\"out\"", id), t.bytesOut.value())
		}
		x.family("cpackd_tenant_limited_total", "counter", "Requests denied per tenant, by reason (rate, quota, queue).")
		for _, id := range tenants {
			limited := m.tenant(id).limitedByReason()
			reasons := make([]string, 0, len(limited))
			for reason := range limited {
				reasons = append(reasons, reason)
			}
			sort.Strings(reasons)
			for _, reason := range reasons {
				x.counter("cpackd_tenant_limited_total", fmt.Sprintf("tenant=%q,reason=%q", id, reason), limited[reason])
			}
		}
	}

	x.family("cpackd_auth_failures_total", "counter", "Requests rejected 401, by auth kind.")
	x.counter("cpackd_auth_failures_total", "kind=\"api\"", m.authFailures.value())
	x.counter("cpackd_auth_failures_total", "kind=\"internal\"", m.internalAuthFailures.value())

	x.family("cpackd_queue_depth", "gauge", "Jobs queued but not yet running, by pool.")
	x.gaugeInt("cpackd_queue_depth", "pool=\"light\"", int64(s.light.depth()))
	x.gaugeInt("cpackd_queue_depth", "pool=\"heavy\"", int64(s.heavy.depth()))
	x.family("cpackd_tenant_queue_depth", "gauge", "Queued jobs per tenant, by pool (backlogged tenants only).")
	for _, p := range []*pool{s.light, s.heavy} {
		depths := p.tenantDepths()
		ids := make([]string, 0, len(depths))
		for id := range depths {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			x.gaugeInt("cpackd_tenant_queue_depth", fmt.Sprintf("tenant=%q,pool=%q", id, p.name), int64(depths[id]))
		}
	}

	x.family("cpackd_requests_shed_total", "counter", "Requests rejected with 429 because a pool was saturated.")
	x.counter("cpackd_requests_shed_total", "", m.shed.value())
	x.family("cpackd_request_timeouts_total", "counter", "Requests that exceeded their deadline.")
	x.counter("cpackd_request_timeouts_total", "", m.timeouts.value())

	x.eof()
}

// sloStateValue maps an SLO state string to its gauge value.
func sloStateValue(state string) int {
	switch state {
	case "warn":
		return 1
	case "page":
		return 2
	}
	return 0
}
