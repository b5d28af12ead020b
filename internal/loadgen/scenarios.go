package loadgen

import (
	"encoding/json"
	"fmt"
	"iter"
	"math/rand"

	"codepack/internal/workload"
)

// Wire bodies. Marshalled with encoding/json over structs, so the byte
// stream is deterministic (field order is fixed by declaration).
type compressBody struct {
	Asm string `json:"asm"`
}

type benchBody struct {
	Benchmark string `json:"benchmark"`
}

func mustBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("loadgen: marshal request body: %v", err))
	}
	return b
}

// compressBodies pre-marshals one compress body per corpus program.
func compressBodies(seed int64, n int) [][]byte {
	out := make([][]byte, n)
	for i, src := range workload.CorpusSources(seed, n) {
		out[i] = mustBody(compressBody{Asm: src})
	}
	return out
}

// --- flashcrowd ----------------------------------------------------------

type flashcrowd struct {
	corpus   int
	hotFrac  float64
	hotBench string // suite benchmark name the crowd hammers
}

// newFlashcrowd hammers one digest with 95% of traffic. The hot request
// names a suite benchmark — the largest Table 1 stand-in — so the body
// stays a few bytes on the wire while the server's first fill is a full
// generate-and-compress of a ~484KB image: the opening burst piles onto
// one in-flight fill, which is exactly the singleflight coalescing (and,
// in a cluster, the peer stampede) the scenario exists to expose.
func newFlashcrowd() flashcrowd {
	return flashcrowd{corpus: 64, hotFrac: 0.95, hotBench: "vortex"}
}

func (flashcrowd) Name() string { return "flashcrowd" }

func (s flashcrowd) Describe() string {
	return fmt.Sprintf("%.0f%% of requests hammer one large benchmark (%s), the rest spread over %d "+
		"small programs: stresses singleflight miss coalescing and the warm tier's stampede behaviour",
		100*s.hotFrac, s.hotBench, s.corpus)
}

func (s flashcrowd) Requests(seed int64) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		hot := mustBody(benchBody{Benchmark: s.hotBench})
		bodies := compressBodies(seed, s.corpus)
		rng := rand.New(rand.NewSource(seed))
		for {
			var req Request
			if rng.Float64() < s.hotFrac {
				req = Request{Op: "compress", Key: "hot", Body: hot}
			} else {
				id := rng.Intn(s.corpus)
				req = Request{Op: "compress", Key: progKey(id), Body: bodies[id]}
			}
			if !yield(req) {
				return
			}
		}
	}
}

// --- churn ---------------------------------------------------------------

type churn struct{ corpus int }

// newChurn keeps the working set small so a replicated cluster holds every
// digest on R members after one pass: from then on each request should be
// served warm — locally or by a surviving replica — even while members
// crash and rejoin underneath the load.
func newChurn() churn { return churn{corpus: 48} }

func (churn) Name() string { return "churn" }

func (s churn) Describe() string {
	return fmt.Sprintf("one warm pass over a %d-program working set, then uniform repeats: "+
		"against a replicated cluster under member churn, the warm-hit ratio is the proof "+
		"that the replica walk and anti-entropy keep the tier serving without recompression", s.corpus)
}

func (s churn) Requests(seed int64) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		bodies := compressBodies(seed, s.corpus)
		rng := rand.New(rand.NewSource(seed))
		// Warm pass: every program exactly once (shuffled), so the tier
		// holds the full working set before churn starts killing members.
		for _, id := range rng.Perm(s.corpus) {
			if !yield(Request{Op: "compress", Key: progKey(id), Body: bodies[id]}) {
				return
			}
		}
		for {
			id := rng.Intn(s.corpus)
			if !yield(Request{Op: "compress", Key: progKey(id), Body: bodies[id]}) {
				return
			}
		}
	}
}
