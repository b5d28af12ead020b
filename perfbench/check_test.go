package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"codepack"
	"codepack/internal/server"
	corpus "codepack/internal/workload"
)

// checkRequests is one request of each kind, over small programs.
func checkRequests(t *testing.T) []*request {
	t.Helper()
	im, err := codepack.Assemble("request", corpus.CorpusSource(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	ref := server.ProgramRef{Asm: corpus.CorpusSource(1, 0)}
	decompress, err := decompressRequest(im)
	if err != nil {
		t.Fatal(err)
	}
	p := codepack.Benchmarks()[0]
	suiteIm, err := codepack.GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	simulate, err := simulateRequest(p.Name, suiteIm)
	if err != nil {
		t.Fatal(err)
	}
	return []*request{
		compressRequest(ref, im),
		verifyRequest(ref, im),
		decompress,
		simulate,
	}
}

// flipIn changes one character in the middle of field's value: a letter
// or digit of a string, or the last digit of a number.
func flipIn(body []byte, field string) []byte {
	key := []byte(`"` + field + `":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return body
	}
	pos := i + len(key)
	if body[pos] == '"' {
		end := pos + 1 + bytes.IndexByte(body[pos+1:], '"')
		pos = (pos + 1 + end) / 2
	} else {
		for pos+1 < len(body) && body[pos+1] >= '0' && body[pos+1] <= '9' {
			pos++
		}
	}
	out := bytes.Clone(body)
	switch c := out[pos]; {
	case c == '9':
		out[pos] = '0'
	case c == 'z' || c == 'Z':
		out[pos] = c - 25
	default:
		out[pos] = c + 1
	}
	return out
}

// corrupting serves h but changes one byte of every answer.
func corrupting(h http.Handler) http.Handler {
	fields := map[string]string{
		"/v1/compress":   "compressed_b64",
		"/v1/verify":     "digest",
		"/v1/decompress": "image_b64",
		"/v1/simulate":   "cycles",
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		w.WriteHeader(rec.Code)
		w.Write(flipIn(rec.Body.Bytes(), fields[r.URL.Path]))
	})
}

// TestWrongAnswersDetected: the full check after the timed phases
// catches one flipped byte in any answer, and passes a correct server.
func TestWrongAnswersDetected(t *testing.T) {
	srv, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reqs := checkRequests(t)

	honest := httptest.NewServer(srv.Handler())
	defer honest.Close()
	cs := newCallers(honest.URL)
	defer closeCallers(cs)
	if got := sendAll(context.Background(), cs, reqs, true); got.Failed != 0 {
		t.Fatalf("correct server: %+v", got)
	}

	liar := httptest.NewServer(corrupting(srv.Handler()))
	defer liar.Close()
	cs = newCallers(liar.URL)
	defer closeCallers(cs)
	for _, r := range reqs {
		if got := sendAll(context.Background(), cs, []*request{r}, true); got.Wrong != 1 {
			t.Errorf("%s: a flipped byte went unnoticed: %+v", r.op, got)
		}
	}
	// The timed phases' cheap check sees the digest, the decompressed
	// image and the simulated counts, but not the compressed payload:
	// that is what the full check is for.
	if got := sendAll(context.Background(), cs, reqs, false); got.Wrong != len(reqs)-1 {
		t.Errorf("cheap check caught %d of the %d non-payload flips", got.Wrong, len(reqs)-1)
	}
}
