package loadgen

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"iter"
	"math/rand"

	"codepack"
	"codepack/internal/workload"
)

// Wire bodies. Marshalled with encoding/json over structs, so the byte
// stream is deterministic (field order is fixed by declaration).
type compressBody struct {
	Asm string `json:"asm"`
}

type verifyBody struct {
	Asm string `json:"asm"`
}

type simulateBody struct {
	Asm      string `json:"asm"`
	Model    string `json:"model"`
	MaxInstr uint64 `json:"max_instr"`
}

type decompressBody struct {
	CompressedB64 string `json:"compressed_b64"`
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

// simulateBudget keeps generated simulate requests heavy enough to occupy
// the heavy pool but far below the server's default budget cap.
const simulateBudget = 50_000

// --- uniform -------------------------------------------------------------

type uniform struct{ corpus int }

func newUniform() uniform { return uniform{corpus: 128} }

func (uniform) Name() string { return "uniform" }

func (s uniform) Describe() string {
	return fmt.Sprintf("compress requests spread uniformly over %d distinct programs: "+
		"every digest equally popular, the cache's steady state", s.corpus)
}

func (s uniform) Requests(seed int64) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		bodies := compressBodies(seed, s.corpus)
		rng := rand.New(rand.NewSource(seed))
		for {
			id := rng.Intn(s.corpus)
			if !yield(Request{Op: "compress", Key: progKey(id), Body: bodies[id]}) {
				return
			}
		}
	}
}

// --- zipfian -------------------------------------------------------------

type zipfian struct {
	corpus int
	s, v   float64
}

// newZipfian picks a skew where the hottest ~10% of programs draw the
// large majority of requests — the cache-friendly hot-set shape real
// content-addressed traffic shows.
func newZipfian() zipfian { return zipfian{corpus: 256, s: 1.2, v: 1} }

func (zipfian) Name() string { return "zipfian" }

func (s zipfian) Describe() string {
	return fmt.Sprintf("compress requests over %d programs with zipf(s=%.1f) popularity: "+
		"a hot set dominates, repeats ride the content-addressed cache", s.corpus, s.s)
}

func (s zipfian) Requests(seed int64) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		bodies := compressBodies(seed, s.corpus)
		rng := rand.New(rand.NewSource(seed))
		z := rand.NewZipf(rng, s.s, s.v, uint64(s.corpus-1))
		for {
			id := int(z.Uint64()) // rank 0 is the hottest program
			if !yield(Request{Op: "compress", Key: progKey(id), Body: bodies[id]}) {
				return
			}
		}
	}
}

// --- thrash --------------------------------------------------------------

type thrash struct{}

func newThrash() thrash { return thrash{} }

func (thrash) Name() string { return "thrash" }

func (thrash) Describe() string {
	return "every request compresses a never-seen program (unique digest): " +
		"zero cache reuse, maximum eviction pressure, adversarial to the LRU"
}

func (thrash) Requests(seed int64) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		for id := 0; ; id++ {
			body := mustBody(compressBody{Asm: workload.CorpusSource(seed, id)})
			if !yield(Request{Op: "compress", Key: progKey(id), Body: body}) {
				return
			}
		}
	}
}

// --- coldstart -----------------------------------------------------------

type coldstart struct{ corpus int }

func newColdstart() coldstart { return coldstart{corpus: 192} }

func (coldstart) Name() string { return "coldstart" }

func (s coldstart) Describe() string {
	return fmt.Sprintf("an all-miss storm: the first %d requests each hit a distinct program "+
		"(a restarted instance's empty cache), then traffic settles into uniform repeats", s.corpus)
}

func (s coldstart) Requests(seed int64) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		bodies := compressBodies(seed, s.corpus)
		rng := rand.New(rand.NewSource(seed))
		// The storm front: every program exactly once, shuffled.
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

// --- mixed ---------------------------------------------------------------

type mixed struct{ corpus int }

func newMixed() mixed { return mixed{corpus: 96} }

func (mixed) Name() string { return "mixed" }

func (s mixed) Describe() string {
	return fmt.Sprintf("a production blend over %d programs: 40%% compress, 20%% verify, "+
		"20%% decompress, 20%% simulate — exercises both worker pools and the shed path", s.corpus)
}

func (s mixed) Requests(seed int64) iter.Seq[Request] {
	return func(yield func(Request) bool) {
		srcs := workload.CorpusSources(seed, s.corpus)
		compress := make([][]byte, len(srcs))
		verify := make([][]byte, len(srcs))
		simulate := make([][]byte, len(srcs))
		for i, src := range srcs {
			compress[i] = mustBody(compressBody{Asm: src})
			verify[i] = mustBody(verifyBody{Asm: src})
			simulate[i] = mustBody(simulateBody{Asm: src, Model: "codepack", MaxInstr: simulateBudget})
		}
		// Decompress bodies carry real compressed payloads; a handful is
		// enough (the endpoint has no cache to vary).
		const nDecomp = 8
		decompress := make([][]byte, 0, nDecomp)
		for i := 0; i < nDecomp && i < len(srcs); i++ {
			im, err := codepack.Assemble(progKey(i), srcs[i])
			if err != nil {
				panic(fmt.Sprintf("loadgen: corpus program does not assemble: %v", err))
			}
			comp, err := codepack.Compress(im)
			if err != nil {
				panic(fmt.Sprintf("loadgen: corpus program does not compress: %v", err))
			}
			decompress = append(decompress, mustBody(decompressBody{
				CompressedB64: base64.StdEncoding.EncodeToString(comp.Marshal()),
			}))
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; ; i++ {
			id := rng.Intn(s.corpus)
			var req Request
			switch i % 5 {
			case 0, 1:
				req = Request{Op: "compress", Key: progKey(id), Body: compress[id]}
			case 2:
				req = Request{Op: "verify", Key: progKey(id), Body: verify[id]}
			case 3:
				d := rng.Intn(len(decompress))
				req = Request{Op: "decompress", Key: progKey(d), Body: decompress[d]}
			default:
				req = Request{Op: "simulate", Key: progKey(id), Body: simulate[id]}
			}
			if !yield(req) {
				return
			}
		}
	}
}
