// Package loadgen is the scenario load harness for cpackd. It drives the
// three behaviours the end-to-end benchmark (perfbench/README.md) cannot:
// singleflight coalescing under a flash crowd, weighted-fair admission
// between two tenants, and a replicated cluster's warm-hit rate while
// members crash and rejoin.
//
// It separates three concerns:
//
//   - A Scenario produces a deterministic, seed-replayable stream of
//     requests over programs generated by internal/workload.
//
//   - The Runner drives an Executor open loop: arrivals follow a fixed
//     schedule derived from the requested QPS, and every latency is
//     measured from the request's *intended* send time, not the moment a
//     worker got around to writing it. A stalled server therefore charges
//     its stall to every request that should have been sent meanwhile
//     (no coordinated omission), which is what a user behind the stall
//     would observe.
//
//   - The Recorder keeps every latency sample and reports exact
//     nearest-rank p50/p90/p99/p99.9/max, and the Report marshals the
//     whole run — config, per-op status counts, goodput, latency
//     quantiles and server-side /metrics deltas — as schema-stable JSON.
//
// cmd/cpackbench is the CLI front end.
package loadgen

import (
	"fmt"
	"iter"
)

// Request is one generated call against a cpackd instance.
type Request struct {
	// Op names the endpoint: "compress", "decompress", "verify" or
	// "simulate" (POST /v1/<op>).
	Op string
	// Key identifies the logical program the request targets; requests
	// with equal keys hit the same content digest. Scenario-stable, so
	// tests and reports can reason about popularity without hashing.
	Key string
	// Body is the pre-marshalled JSON request body.
	Body []byte
	// Tenant labels the request for per-tenant reporting. Empty on
	// single-tenant scenarios; the runner then skips the tenant section.
	Tenant string
	// Header carries extra HTTP headers (e.g. "Authorization: Bearer
	// <key>") the executor must attach. Nil on anonymous scenarios.
	Header map[string]string
}

// Scenario is a named, deterministic request-stream generator. Requests
// must yield an identical stream for an identical seed — the runner, the
// determinism tests and cross-run comparisons all rely on it. Streams are
// infinite; the runner stops pulling when the run's schedule ends.
type Scenario interface {
	Name() string
	Describe() string
	Requests(seed int64) iter.Seq[Request]
}

// TenantSpec describes one tenant a multi-tenant scenario emits traffic
// as: its admission weight (for fairness normalization) and the API key
// its requests present.
type TenantSpec struct {
	Weight int
	Key    string
}

// TenantScenario is implemented by scenarios that replay several tenants
// at once; the runner uses the specs to normalize per-tenant goodput by
// weight when computing the fairness index.
type TenantScenario interface {
	Scenario
	Tenants() map[string]TenantSpec
}

// Scenarios returns the built-in scenario catalogue, sorted by name.
func Scenarios() []Scenario {
	return []Scenario{newChurn(), newFlashcrowd(), newTenants()}
}

// ByName returns the named built-in scenario.
func ByName(name string) (Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

// Names returns the built-in scenario names, sorted.
func Names() []string {
	var out []string
	for _, s := range Scenarios() {
		out = append(out, s.Name())
	}
	return out
}

// progKey is the stable request key for corpus program id.
func progKey(id int) string { return fmt.Sprintf("prog-%d", id) }
