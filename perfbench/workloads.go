package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"codepack"
	"codepack/internal/server"
	corpus "codepack/internal/workload"
)

// cacheEntries is cpackd's default compression-cache size. The miss
// workloads cycle through a multiple of it, so an LRU never hits.
const cacheEntries = server.DefaultCacheEntries

// simulateBudget is the instruction budget of the mixed workload's
// simulate requests: long enough to run the suite programs' code, not
// just their start-up.
const simulateBudget = 100_000

// workload is one traffic mix. rate is the open-loop rate of the latency
// phase: a fifth to a quarter of the workload's capacity on a 2-vCPU
// host. Rates near half of capacity doubled the run-to-run spread of the
// latency percentiles there, and lower rates did not reduce it.
type workload struct {
	name  string
	rate  float64
	build func(seed int64) (*inputs, error)
}

var workloads = []workload{
	{name: "hits-large", rate: 250, build: buildHitsLarge},
	{name: "misses-large", rate: 110, build: buildMissesLarge},
	{name: "misses-small", rate: 900, build: buildMissesSmall},
	{name: "mixed", rate: 90, build: buildMixed},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// request is one distinct request the benchmark sends, with the answer a
// correct server gives.
type request struct {
	op   string // endpoint: POST /v1/<op>
	body []byte
	// class groups requests of similar cost: the endpoint, or in
	// hits-large the suite program, whose hits differ sevenfold in cost.
	// The latency median is taken within each class.
	class string
	// expect is a substring of every correct response body, cheap enough
	// to look for in each response of the timed phases.
	expect []byte
	// verify checks a whole response body against the library. It runs
	// once per distinct request, after the timed phases.
	verify func(body []byte) error
}

// inputs are a workload's requests, built from the seed before any
// timing starts. The server only ever sees these bodies.
type inputs struct {
	reqs []*request
	// warm lists the requests of the warm pass, one per hot key.
	warm []int
	// draw picks the request sent i-th after the warm pass.
	draw func(rng *rand.Rand, i int) int
	// suite holds the suite programs by name, for the in-process replay
	// of benchmark references.
	suite map[string]*codepack.Image
}

// stream is the seeded request sequence after the warm pass, shared by
// the callers of one server process.
type stream struct {
	mu  sync.Mutex
	in  *inputs
	rng *rand.Rand
	i   int
}

func newStream(in *inputs, seed int64) *stream {
	return &stream{in: in, rng: rand.New(rand.NewSource(seed))}
}

func (s *stream) next() *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.in.reqs[s.in.draw(s.rng, s.i)]
	s.i++
	return r
}

// roundRobin continues a cycle over all requests after a warm pass over
// the first len(warm) of them.
func roundRobin(in *inputs) func(*rand.Rand, int) int {
	n, off := len(in.reqs), len(in.warm)
	return func(_ *rand.Rand, i int) int { return (off + i) % n }
}

func prefix(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// buildHitsLarge: compress by benchmark reference, uniform over the six
// suite programs. After the warm pass every request is a cache hit.
func buildHitsLarge(seed int64) (*inputs, error) {
	suite, names, err := buildSuite()
	if err != nil {
		return nil, err
	}
	in := &inputs{suite: suite}
	for _, name := range names {
		r := compressRequest(server.ProgramRef{Benchmark: name}, suite[name])
		r.class = name
		in.reqs = append(in.reqs, r)
	}
	in.warm = prefix(len(in.reqs))
	in.draw = func(rng *rand.Rand, _ int) int { return rng.Intn(len(in.reqs)) }
	return in, nil
}

// buildMissesLarge: compress by image_b64, round-robin over twice the
// cache in ~8k-instruction corpus programs, so no request is a hit.
func buildMissesLarge(seed int64) (*inputs, error) {
	ims, err := assembleCorpus(seed, 2*cacheEntries, 8192)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	for _, im := range ims {
		b64 := base64.StdEncoding.EncodeToString(im.Marshal())
		in.reqs = append(in.reqs, compressRequest(server.ProgramRef{ImageB64: b64}, im))
	}
	in.warm = prefix(cacheEntries)
	in.draw = roundRobin(in)
	return in, nil
}

// buildMissesSmall: compress by asm, round-robin over four times the
// cache in tiny corpus programs, so fixed per-request costs dominate.
func buildMissesSmall(seed int64) (*inputs, error) {
	ims, err := assembleCorpus(seed, 4*cacheEntries, 0)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	for i, im := range ims {
		in.reqs = append(in.reqs, compressRequest(server.ProgramRef{Asm: corpus.CorpusSource(seed, i)}, im))
	}
	in.warm = prefix(cacheEntries)
	in.draw = roundRobin(in)
	return in, nil
}

// mixedHot is the size of the mixed workload's hot set.
const mixedHot = 64

// buildMixed: 40% compress and 20% verify by asm over a warm hot set of
// ~1k-instruction programs, 20% decompress of their compressed forms and
// 20% simulate of a random suite program.
func buildMixed(seed int64) (*inputs, error) {
	ims, err := assembleCorpus(seed, mixedHot, 1024)
	if err != nil {
		return nil, err
	}
	suite, names, err := buildSuite()
	if err != nil {
		return nil, err
	}
	in := &inputs{suite: suite}
	add := func(r *request) int {
		in.reqs = append(in.reqs, r)
		return len(in.reqs) - 1
	}
	var compress, verify, decompress, simulate []int
	for i, im := range ims {
		ref := server.ProgramRef{Asm: corpus.CorpusSourceSized(seed, i, 1024)}
		compress = append(compress, add(compressRequest(ref, im)))
		verify = append(verify, add(verifyRequest(ref, im)))
		r, err := decompressRequest(im)
		if err != nil {
			return nil, err
		}
		decompress = append(decompress, add(r))
	}
	sims := make([]*request, len(names))
	if err := parallel(len(names), func(i int) error {
		var err error
		sims[i], err = simulateRequest(names[i], suite[names[i]])
		return err
	}); err != nil {
		return nil, err
	}
	for _, r := range sims {
		simulate = append(simulate, add(r))
	}
	in.warm = append(append([]int{}, compress...), simulate...)
	in.draw = func(rng *rand.Rand, _ int) int {
		switch x := rng.Float64(); {
		case x < 0.4:
			return compress[rng.Intn(len(compress))]
		case x < 0.6:
			return verify[rng.Intn(len(verify))]
		case x < 0.8:
			return decompress[rng.Intn(len(decompress))]
		default:
			return simulate[rng.Intn(len(simulate))]
		}
	}
	return in, nil
}

func compressRequest(ref server.ProgramRef, im *codepack.Image) *request {
	digest := codepack.ImageDigest(im)
	return &request{
		op:     "compress",
		body:   mustJSON(server.CompressRequest{ProgramRef: ref}),
		class:  "compress",
		expect: []byte(`"digest":"` + digest + `"`),
		verify: func(b []byte) error {
			var resp server.CompressResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return err
			}
			if resp.Digest != digest {
				return fmt.Errorf("compress: digest %s, want %s", resp.Digest, digest)
			}
			raw, err := base64.StdEncoding.DecodeString(resp.CompressedB64)
			if err != nil {
				return fmt.Errorf("compress: %w", err)
			}
			comp, err := codepack.UnmarshalCompressed(im.Name, raw)
			if err != nil {
				return fmt.Errorf("compress: %w", err)
			}
			if comp.TextBase != im.TextBase {
				return fmt.Errorf("compress: text base %#x, want %#x", comp.TextBase, im.TextBase)
			}
			text, err := comp.Decompress()
			if err != nil {
				return fmt.Errorf("compress: payload does not decompress: %w", err)
			}
			return sameText("compress", text, im.Text)
		},
	}
}

func verifyRequest(ref server.ProgramRef, im *codepack.Image) *request {
	digest := codepack.ImageDigest(im)
	return &request{
		op:     "verify",
		body:   mustJSON(server.VerifyRequest{ProgramRef: ref}),
		class:  "verify",
		expect: []byte(`"ok":true,"digest":"` + digest + `"`),
		verify: func(b []byte) error {
			var resp server.VerifyResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return err
			}
			if !resp.OK || resp.Digest != digest || resp.Instructions != len(im.Text) {
				return fmt.Errorf("verify: got ok=%v digest=%s instructions=%d, want true %s %d",
					resp.OK, resp.Digest, resp.Instructions, digest, len(im.Text))
			}
			return nil
		},
	}
}

func decompressRequest(im *codepack.Image) (*request, error) {
	comp, err := codepack.Compress(im)
	if err != nil {
		return nil, err
	}
	body := mustJSON(server.DecompressRequest{CompressedB64: base64.StdEncoding.EncodeToString(comp.Marshal())})
	want := &codepack.Image{Name: "request", Entry: comp.TextBase, TextBase: comp.TextBase, Text: im.Text}
	wantB64 := base64.StdEncoding.EncodeToString(want.Marshal())
	return &request{
		op:     "decompress",
		body:   body,
		class:  "decompress",
		expect: []byte(`"image_b64":"` + wantB64 + `"`),
		verify: func(b []byte) error {
			var resp server.DecompressResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return err
			}
			raw, err := base64.StdEncoding.DecodeString(resp.ImageB64)
			if err != nil {
				return fmt.Errorf("decompress: %w", err)
			}
			got, err := codepack.UnmarshalImage(raw)
			if err != nil {
				return fmt.Errorf("decompress: %w", err)
			}
			if resp.Instructions != len(im.Text) || got.TextBase != im.TextBase {
				return fmt.Errorf("decompress: %d instructions at %#x, want %d at %#x",
					resp.Instructions, got.TextBase, len(im.Text), im.TextBase)
			}
			return sameText("decompress", got.Text, im.Text)
		},
	}, nil
}

// simulateRequest names a suite program and expects the cycle count the
// library's deterministic simulator gives for it.
func simulateRequest(name string, im *codepack.Image) (*request, error) {
	comp, err := codepack.Compress(im)
	if err != nil {
		return nil, err
	}
	model := codepack.BaselineModel()
	model.Comp = comp
	res, err := codepack.Simulate(im, codepack.FourIssue(), model, simulateBudget)
	if err != nil {
		return nil, fmt.Errorf("simulate %s: %w", name, err)
	}
	body := mustJSON(server.SimulateRequest{
		ProgramRef: server.ProgramRef{Benchmark: name},
		Model:      "codepack",
		MaxInstr:   simulateBudget,
	})
	return &request{
		op:    "simulate",
		body:  body,
		class: "simulate",
		expect: []byte(`"instructions":` + strconv.FormatUint(res.Instructions, 10) +
			`,"cycles":` + strconv.FormatUint(res.Cycles, 10) + `,`),
		verify: func(b []byte) error {
			var resp server.SimulateResponse
			if err := json.Unmarshal(b, &resp); err != nil {
				return err
			}
			if resp.Instructions != res.Instructions || resp.Cycles != res.Cycles {
				return fmt.Errorf("simulate %s: %d instructions in %d cycles, want %d in %d",
					name, resp.Instructions, resp.Cycles, res.Instructions, res.Cycles)
			}
			return nil
		},
	}, nil
}

// check is the cheap per-response check of the timed phases.
func (r *request) check(body []byte) error {
	if !bytes.Contains(body, r.expect) {
		return fmt.Errorf("%s: response lacks %.80s", r.op, r.expect)
	}
	return nil
}

func sameText(op string, got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d instructions, want %d", op, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: instruction %d is %#08x, want %#08x", op, i, got[i], want[i])
		}
	}
	return nil
}

// buildSuite generates the six suite programs, as cpackd does for a
// benchmark reference.
func buildSuite() (map[string]*codepack.Image, []string, error) {
	profiles := codepack.Benchmarks()
	ims := make([]*codepack.Image, len(profiles))
	err := parallel(len(profiles), func(i int) error {
		var err error
		ims[i], err = codepack.GenerateBenchmark(profiles[i])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	suite := make(map[string]*codepack.Image, len(profiles))
	names := make([]string, len(profiles))
	for i, p := range profiles {
		suite[p.Name], names[i] = ims[i], p.Name
	}
	return suite, names, nil
}

// assembleCorpus assembles n distinct corpus programs of the given body
// size (0 = small random sizes).
func assembleCorpus(seed int64, n, body int) ([]*codepack.Image, error) {
	ims := make([]*codepack.Image, n)
	err := parallel(n, func(i int) error {
		var err error
		ims[i], err = codepack.Assemble("request", corpus.CorpusSourceSized(seed, i, body))
		return err
	})
	return ims, err
}

// parallel runs fn(0..n-1) on one goroutine per CPU and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		nextI    int
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := nextI
				nextI++
				mu.Unlock()
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal request body: %v", err))
	}
	return b
}
