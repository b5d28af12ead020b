package main

import (
	"container/list"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"codepack"
	"codepack/internal/core"
	"codepack/internal/server"
)

// replayLayers are the layers the replay times, in serving order. Each is
// the library call a cpackd handler makes for that step.
var replayLayers = []string{
	"req.decode",     // json.Unmarshal of the request body
	"asm.assemble",   // codepack.Assemble of an asm reference
	"program.decode", // base64 + codepack.UnmarshalImage of an image_b64 reference
	"digest",         // Image.Marshal + codepack.Digest, the cache key
	"core.compress",  // core.CompressWordsHooked on a cache miss
	"core.unmarshal", // codepack.UnmarshalCompressed of a payload
	"core.decode",    // AppendDecompress
	"sim.simulate",   // codepack.SimulateContext
	"resp.encode",    // Stats + Marshal + base64 + json.Marshal of the response
}

// compressPhases are the phases core.CompressWordsHooked reports.
var compressPhases = []string{"dict-build", "encode", "index-build"}

// layerStats accumulates one layer's calls during the replay. units is
// the layer's work: bytes processed, or instructions simulated.
type layerStats struct {
	calls  int
	dur    time.Duration
	units  int64
	allocs uint64
}

// replay re-issues a workload's request stream in-process, on one
// goroutine, through the library calls cpackd's handlers make, and times
// each call. Its cache is an LRU by digest of cpackd's default size, so
// its hits and misses follow the server's.
type replay struct {
	in       *inputs
	layers   map[string]*layerStats
	phases   map[string]time.Duration
	cache    *lru
	lookups  int
	hits     int
	requests int
	elapsed  time.Duration
	decoded  []uint32
	allocs   []metrics.Sample
}

func newReplay(in *inputs) *replay {
	rp := &replay{
		in:     in,
		cache:  newLRU(cacheEntries),
		allocs: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
	rp.reset()
	return rp
}

func (rp *replay) reset() {
	rp.layers = make(map[string]*layerStats, len(replayLayers))
	for _, l := range replayLayers {
		rp.layers[l] = &layerStats{}
	}
	rp.phases = make(map[string]time.Duration, len(compressPhases))
	rp.lookups, rp.hits, rp.requests, rp.elapsed = 0, 0, 0, 0
}

func (rp *replay) heapAllocs() uint64 {
	metrics.Read(rp.allocs)
	return rp.allocs[0].Value.Uint64()
}

// time runs fn as one call of layer name; fn returns the units of work it
// did.
func (rp *replay) time(name string, fn func() (int, error)) error {
	a0 := rp.heapAllocs()
	t0 := time.Now()
	n, err := fn()
	d := time.Since(t0)
	l := rp.layers[name]
	l.allocs += rp.heapAllocs() - a0
	l.calls++
	l.dur += d
	l.units += int64(n)
	return err
}

// run replays the warm pass uncounted, then the stream of seed for
// budget, and returns the first error a call reports.
func (rp *replay) run(ctx context.Context, seed int64, budget time.Duration) error {
	for _, i := range rp.in.warm {
		if err := rp.serve(ctx, rp.in.reqs[i]); err != nil {
			return err
		}
	}
	rp.reset()
	st := newStream(rp.in, seed)
	runtime.GC()
	start := time.Now()
	for rp.requests == 0 || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := rp.serve(ctx, st.next()); err != nil {
			return err
		}
		rp.requests++
	}
	rp.elapsed = time.Since(start)
	return nil
}

// serve mirrors the handler of r.op.
func (rp *replay) serve(ctx context.Context, r *request) error {
	switch r.op {
	case "compress":
		var req server.CompressRequest
		if err := rp.decodeRequest(r, &req); err != nil {
			return err
		}
		im, err := rp.resolve(req.ProgramRef)
		if err != nil {
			return err
		}
		comp, digest, cached, err := rp.compressImage(im)
		if err != nil {
			return err
		}
		return rp.encode(func() any {
			st := comp.Stats()
			return server.CompressResponse{
				Name:            im.Name,
				Digest:          digest,
				OriginalBytes:   st.OriginalBytes,
				CompressedBytes: st.CompressedBytes(),
				Ratio:           st.Ratio(),
				Cached:          cached,
				CompressedB64:   base64.StdEncoding.EncodeToString(comp.Marshal()),
			}
		})
	case "verify":
		var req server.VerifyRequest
		if err := rp.decodeRequest(r, &req); err != nil {
			return err
		}
		im, err := rp.resolve(req.ProgramRef)
		if err != nil {
			return err
		}
		comp, digest, cached, err := rp.compressImage(im)
		if err != nil {
			return err
		}
		var reloaded *codepack.Compressed
		if err := rp.time("core.unmarshal", func() (int, error) {
			payload := comp.Marshal()
			reloaded, err = codepack.UnmarshalCompressed(im.Name, payload)
			return len(payload), err
		}); err != nil {
			return err
		}
		if err := rp.decode(reloaded); err != nil {
			return err
		}
		if err := sameText("verify", rp.decoded, im.Text); err != nil {
			return err
		}
		return rp.encode(func() any {
			return server.VerifyResponse{OK: true, Digest: digest, Instructions: len(im.Text),
				Ratio: comp.Stats().Ratio(), Cached: cached}
		})
	case "decompress":
		var req server.DecompressRequest
		if err := rp.decodeRequest(r, &req); err != nil {
			return err
		}
		var comp *codepack.Compressed
		if err := rp.time("core.unmarshal", func() (int, error) {
			raw, err := base64.StdEncoding.DecodeString(req.CompressedB64)
			if err != nil {
				return 0, err
			}
			comp, err = codepack.UnmarshalCompressed("request", raw)
			return len(raw), err
		}); err != nil {
			return err
		}
		if err := rp.decode(comp); err != nil {
			return err
		}
		return rp.encode(func() any {
			im := &codepack.Image{Name: "request", Entry: comp.TextBase, TextBase: comp.TextBase, Text: rp.decoded}
			return server.DecompressResponse{Instructions: len(rp.decoded), TextBase: comp.TextBase,
				ImageB64: base64.StdEncoding.EncodeToString(im.Marshal())}
		})
	case "simulate":
		var req server.SimulateRequest
		if err := rp.decodeRequest(r, &req); err != nil {
			return err
		}
		if req.Model != "codepack" || req.Arch != "" {
			return fmt.Errorf("replay: simulate request for model %q arch %q", req.Model, req.Arch)
		}
		im, err := rp.resolve(req.ProgramRef)
		if err != nil {
			return err
		}
		comp, _, cached, err := rp.compressImage(im)
		if err != nil {
			return err
		}
		model := codepack.BaselineModel()
		model.Comp = comp
		var res codepack.Result
		if err := rp.time("sim.simulate", func() (int, error) {
			res, err = codepack.SimulateContext(ctx, im, codepack.FourIssue(), model, req.MaxInstr)
			return int(res.Instructions), err
		}); err != nil {
			return err
		}
		return rp.encode(func() any {
			return server.SimulateResponse{Program: res.Program, Arch: res.Arch, Model: req.Model,
				Instructions: res.Instructions, Cycles: res.Cycles, IPC: res.IPC(),
				IMissRate: res.IMissRate(), Ratio: res.Ratio, Cached: cached}
		})
	}
	return fmt.Errorf("replay: unknown op %q", r.op)
}

func (rp *replay) decodeRequest(r *request, v any) error {
	return rp.time("req.decode", func() (int, error) { return len(r.body), json.Unmarshal(r.body, v) })
}

// resolve turns a program reference into an image. A benchmark reference
// is a lookup, as in cpackd once its suite holds the program.
func (rp *replay) resolve(ref server.ProgramRef) (*codepack.Image, error) {
	var im *codepack.Image
	var err error
	switch {
	case ref.Benchmark != "":
		if im = rp.in.suite[ref.Benchmark]; im == nil {
			return nil, fmt.Errorf("replay: unknown benchmark %q", ref.Benchmark)
		}
	case ref.Asm != "":
		err = rp.time("asm.assemble", func() (int, error) {
			im, err = codepack.Assemble("request", ref.Asm)
			return len(ref.Asm), err
		})
	default:
		err = rp.time("program.decode", func() (int, error) {
			raw, err := base64.StdEncoding.DecodeString(ref.ImageB64)
			if err != nil {
				return 0, err
			}
			im, err = codepack.UnmarshalImage(raw)
			return len(raw), err
		})
	}
	return im, err
}

// compressImage is cpackd's cache lookup by digest, compressing on a miss.
func (rp *replay) compressImage(im *codepack.Image) (*codepack.Compressed, string, bool, error) {
	var digest string
	rp.time("digest", func() (int, error) {
		b := im.Marshal()
		digest = codepack.Digest(b)
		return len(b), nil
	})
	rp.lookups++
	if comp, ok := rp.cache.get(digest); ok {
		rp.hits++
		return comp, digest, true, nil
	}
	var comp *codepack.Compressed
	err := rp.time("core.compress", func() (int, error) {
		var err error
		comp, err = core.CompressWordsHooked(im.Name, im.TextBase, im.Text, core.DefaultOptions(),
			func(phase string) func() {
				t0 := time.Now()
				return func() { rp.phases[phase] += time.Since(t0) }
			})
		return 4 * len(im.Text), err
	})
	if err != nil {
		return nil, "", false, err
	}
	rp.cache.put(digest, comp)
	return comp, digest, false, nil
}

// decode decompresses comp into the replay's reused buffer, as cpackd
// decodes into a pooled one.
func (rp *replay) decode(comp *codepack.Compressed) error {
	return rp.time("core.decode", func() (int, error) {
		out, err := comp.AppendDecompress(rp.decoded[:0])
		if out != nil {
			rp.decoded = out
		}
		return 4 * len(out), err
	})
}

func (rp *replay) encode(resp func() any) error {
	return rp.time("resp.encode", func() (int, error) {
		b, err := json.Marshal(resp())
		return len(b), err
	})
}

// metrics reports the replay's per-layer metrics.
func (rp *replay) metrics(out map[string]float64) {
	perCall := func(l *layerStats, v float64) float64 {
		if l.calls == 0 {
			return 0
		}
		return v / float64(l.calls)
	}
	// rate is the layer's throughput in millions of work units per second.
	rate := func(l *layerStats) float64 {
		if l.dur == 0 {
			return 0
		}
		return float64(l.units) / l.dur.Seconds() / 1e6
	}
	reqs := float64(max(rp.requests, 1))
	for _, name := range replayLayers {
		l := rp.layers[name]
		out[name+".ms_per_req"] = ms(l.dur) / reqs
		out[name+".mean_us"] = perCall(l, us(l.dur))
	}
	for _, name := range []string{"digest", "core.compress", "core.unmarshal", "core.decode"} {
		out[name+".mbps"] = rate(rp.layers[name])
	}
	for _, name := range []string{"asm.assemble", "core.compress"} {
		l := rp.layers[name]
		out[name+".allocs_per_call"] = perCall(l, float64(l.allocs))
	}
	compress := rp.layers["core.compress"]
	for _, p := range compressPhases {
		out["core."+p+".mean_us"] = perCall(compress, us(rp.phases[p]))
	}
	out["resp.encode.bytes_per_call"] = perCall(rp.layers["resp.encode"], float64(rp.layers["resp.encode"].units))
	out["sim.simulate.minstr_per_s"] = rate(rp.layers["sim.simulate"])
	out["replay.ms_per_req"] = ms(rp.elapsed) / reqs
	out["replay.requests"] = float64(rp.requests)
	out["replay.hit_rate"] = 0
	if rp.lookups > 0 {
		out["replay.hit_rate"] = float64(rp.hits) / float64(rp.lookups)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// lru is a least-recently-used map from digest to compressed program.
type lru struct {
	cap   int
	order *list.List // of *lruEntry, most recent first
	items map[string]*list.Element
}

type lruEntry struct {
	digest string
	comp   *codepack.Compressed
}

func newLRU(n int) *lru { return &lru{cap: n, order: list.New(), items: map[string]*list.Element{}} }

func (c *lru) get(digest string) (*codepack.Compressed, bool) {
	e, ok := c.items[digest]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*lruEntry).comp, true
}

// put adds an entry that get just missed, evicting the least recent.
func (c *lru) put(digest string, comp *codepack.Compressed) {
	c.items[digest] = c.order.PushFront(&lruEntry{digest, comp})
	if c.order.Len() > c.cap {
		old := c.order.Remove(c.order.Back()).(*lruEntry)
		delete(c.items, old.digest)
	}
}
