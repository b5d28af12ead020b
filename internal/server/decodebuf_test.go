package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"codepack"
	"codepack/internal/isa"
)

// jsonBody and readBody are goroutine-safe counterparts of postJSON and
// decodeBody: they report errors instead of calling t.Fatal.
func jsonBody(v any) io.Reader {
	b, _ := json.Marshal(v)
	return bytes.NewReader(b)
}

func readBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d (body: %s)", resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, v)
}

// poolProgram builds a deterministic program of n words whose content is
// keyed by seed, so any cross-request buffer bleed shows up as a word
// mismatch rather than a flake.
func poolProgram(seed, n int) *codepack.Image {
	text := make([]isa.Word, n)
	for i := range text {
		text[i] = isa.Word(seed*0o_1000_003+i*2654435761) | 1<<28
	}
	return &codepack.Image{
		Name:     fmt.Sprintf("pool-%d", seed),
		Entry:    isa.TextBase,
		TextBase: isa.TextBase,
		Text:     text,
	}
}

// TestDecodeBufReuse pins the pool contract directly: a released buffer
// comes back grown, and AppendDecompress into it does not reallocate.
func TestDecodeBufReuse(t *testing.T) {
	im := poolProgram(1, 600)
	comp, err := codepack.Compress(im)
	if err != nil {
		t.Fatal(err)
	}
	bp := getDecodeBuf()
	text, err := comp.AppendDecompress((*bp)[:0])
	if err != nil {
		t.Fatal(err)
	}
	*bp = text

	// With no GC in between a single-goroutine put/get round-trips,
	// except that race builds drop a random quarter of Puts by design:
	// repeat the round until the buffer comes back (a false failure is
	// then 4^-64 likely). A put that never pools fails every round.
	var bp2 *[]isa.Word
	for try := 0; try < 64; try++ {
		putDecodeBuf(bp)
		if bp2 = getDecodeBuf(); cap(*bp2) >= 600 {
			break
		}
	}
	if cap(*bp2) < 600 {
		t.Fatalf("pooled capacity %d, want >= 600", cap(*bp2))
	}
	before := &(*bp2)[:1][0]
	again, err := comp.AppendDecompress((*bp2)[:0])
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != before {
		t.Fatal("decode into pooled buffer reallocated")
	}
	for i, w := range again {
		if w != im.Text[i] {
			t.Fatalf("word %d: %#x, want %#x", i, w, im.Text[i])
		}
	}
	*bp2 = again
	putDecodeBuf(bp2)
}

// TestPooledDecodeConcurrent hammers the decompress and verify endpoints
// from many goroutines with programs of different sizes. Every response
// must reproduce its own program exactly: a buffer handed back to the
// pool while still referenced, or a stale length after reuse, shows up
// here as cross-request word bleed.
func TestPooledDecodeConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	type prog struct {
		im  *codepack.Image
		b64 string // compressed form for /v1/decompress
		img string // image form for /v1/verify
	}
	var progs []prog
	for seed, n := range []int{17, 400, 1500, 64, 900, 33, 2300, 250} {
		im := poolProgram(seed, n)
		comp, err := codepack.Compress(im)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{
			im:  im,
			b64: base64.StdEncoding.EncodeToString(comp.Marshal()),
			img: base64.StdEncoding.EncodeToString(im.Marshal()),
		})
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(progs))
	for g := range progs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := progs[g]
			for iter := 0; iter < 15; iter++ {
				resp, err := http.Post(ts.URL+"/v1/decompress", "application/json",
					jsonBody(DecompressRequest{CompressedB64: p.b64}))
				if err != nil {
					errs <- err
					return
				}
				var dr DecompressResponse
				if err := readBody(resp, &dr); err != nil {
					errs <- fmt.Errorf("prog %d: %w", g, err)
					return
				}
				if dr.Instructions != len(p.im.Text) {
					errs <- fmt.Errorf("prog %d: %d instructions, want %d",
						g, dr.Instructions, len(p.im.Text))
					return
				}
				raw, err := base64.StdEncoding.DecodeString(dr.ImageB64)
				if err != nil {
					errs <- err
					return
				}
				got, err := codepack.UnmarshalImage(raw)
				if err != nil {
					errs <- err
					return
				}
				for i, w := range got.Text {
					if w != p.im.Text[i] {
						errs <- fmt.Errorf("prog %d iter %d word %d: %#x, want %#x",
							g, iter, i, w, p.im.Text[i])
						return
					}
				}

				resp, err = http.Post(ts.URL+"/v1/verify", "application/json",
					jsonBody(VerifyRequest{ProgramRef: ProgramRef{ImageB64: p.img}}))
				if err != nil {
					errs <- err
					return
				}
				var vr VerifyResponse
				if err := readBody(resp, &vr); err != nil {
					errs <- fmt.Errorf("prog %d verify: %w", g, err)
					return
				}
				if !vr.OK {
					errs <- fmt.Errorf("prog %d: verify not OK", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
