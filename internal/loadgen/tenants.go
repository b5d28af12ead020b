package loadgen

import (
	"fmt"
	"iter"
	"math/rand"

	"codepack/internal/workload"
)

// Bench tenant identities. cmd/cpackbench registers these in its
// in-process server's tenant registry so the scenario's keys resolve;
// against an external target, configure the same ids/keys in the
// -tenants file (see docs/SERVER.md).
const (
	BenchTenantLight = "light"
	BenchTenantHeavy = "heavy"

	BenchTenantLightKey = "bench-light-2f8a1c90"
	BenchTenantHeavyKey = "bench-heavy-7d43be12"
)

// --- tenants -------------------------------------------------------------

type tenants struct {
	corpus     int     // the light tenant's hot working set
	heavyFrac  float64 // fraction of arrivals belonging to the heavy tenant
	heavyBench string  // suite benchmark the heavy tenant simulates
}

// benchSimulateBody is a simulate request naming a calibrated suite
// benchmark (which runs to its instruction budget) instead of inline asm.
type benchSimulateBody struct {
	Benchmark string `json:"benchmark"`
	Model     string `json:"model"`
	MaxInstr  uint64 `json:"max_instr"`
}

// newTenants replays two equal-weight tenants at a 10:1 offered-load
// skew. The heavy tenant alternates unique-digest compressions (zero
// cache reuse) with simulate calls, occupying both pools; the light
// tenant sends cheap cache-friendly compressions over a small hot set.
// Under weighted-fair admission the heavy tenant's overload must shed
// onto itself — the light tenant's p99 and error rate are the proof.
func newTenants() tenants {
	return tenants{corpus: 16, heavyFrac: 10.0 / 11.0, heavyBench: "go"}
}

func (tenants) Name() string { return "tenants" }

func (s tenants) Describe() string {
	return fmt.Sprintf("two equal-weight tenants at 10:1 offered load: the heavy tenant "+
		"thrashes unique digests and the heavy pool while the light tenant repeats a %d-program "+
		"hot set — fair admission must keep the light tenant's p99 flat and shed the heavy "+
		"tenant via its own 429s", s.corpus)
}

func (s tenants) Tenants() map[string]TenantSpec {
	return map[string]TenantSpec{
		BenchTenantLight: {Weight: 1, Key: BenchTenantLightKey},
		BenchTenantHeavy: {Weight: 1, Key: BenchTenantHeavyKey},
	}
}

func (s tenants) Requests(seed int64) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		lightHdr := map[string]string{"Authorization": "Bearer " + BenchTenantLightKey}
		heavyHdr := map[string]string{"Authorization": "Bearer " + BenchTenantHeavyKey}
		bodies := compressBodies(seed, s.corpus)
		rng := rand.New(rand.NewSource(seed))
		// Corpus programs halt within microseconds whatever the budget, so
		// the heavy tenant simulates a calibrated suite benchmark instead:
		// those run to their committed-instruction budget, pinning a heavy
		// worker for real milliseconds per call, and the 10:1 skew genuinely
		// saturates the heavy pool instead of breezing through it.
		const heavyBudget = 2_000_000
		uniq := s.corpus // heavy's unique-digest ids start past the hot set
		for i := 0; ; i++ {
			var req Request
			if rng.Float64() < s.heavyFrac {
				req.Tenant, req.Header = BenchTenantHeavy, heavyHdr
				if i%2 == 0 {
					req.Op = "compress"
					req.Key = progKey(uniq)
					req.Body = mustBody(compressBody{Asm: workload.CorpusSource(seed, uniq)})
					uniq++
				} else {
					req.Op = "simulate"
					req.Key = "bench-" + s.heavyBench
					req.Body = mustBody(benchSimulateBody{
						Benchmark: s.heavyBench, Model: "codepack", MaxInstr: heavyBudget})
				}
			} else {
				id := rng.Intn(s.corpus)
				req = Request{Op: "compress", Key: progKey(id), Body: bodies[id],
					Tenant: BenchTenantLight, Header: lightHdr}
			}
			if !yield(req) {
				return
			}
		}
	}
}
