package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"codepack"
	"codepack/internal/peer"
	"codepack/internal/trace"
)

var hexIDRE = regexp.MustCompile(`^[0-9a-f]{16}$`)

// postWithID posts a compress request carrying an explicit (possibly
// empty) X-Request-ID and returns the response.
func postWithID(t *testing.T, url, id string) *http.Response {
	t.Helper()
	b, err := json.Marshal(CompressRequest{ProgramRef: ProgramRef{Asm: testAsm}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/compress", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(trace.Header, id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	io.Copy(io.Discard, resp.Body)
	return resp
}

// TestRequestIDEcho covers the header contract: a sane caller ID is
// echoed, a missing or garbage one is replaced with a generated ID.
func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if got := postWithID(t, ts.URL, "client-abc-123").Header.Get(trace.Header); got != "client-abc-123" {
		t.Errorf("provided ID not echoed: got %q", got)
	}
	if got := postWithID(t, ts.URL, "").Header.Get(trace.Header); !hexIDRE.MatchString(got) {
		t.Errorf("generated ID %q does not look like 16 hex chars", got)
	}
	if got := postWithID(t, ts.URL, `bad id "quoted"`).Header.Get(trace.Header); !hexIDRE.MatchString(got) {
		t.Errorf("garbage ID not replaced with a generated one: got %q", got)
	}
	long := strings.Repeat("x", 100)
	if got := postWithID(t, ts.URL, long).Header.Get(trace.Header); got == long || !hexIDRE.MatchString(got) {
		t.Errorf("oversized ID not replaced: got %q", got)
	}
}

// syncBuffer makes a bytes.Buffer safe to share between the server's
// logging goroutines and the test's reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRequestIDInAccessLog: the access log line for a request carries
// its request ID, so a trace can be followed through the logs.
func TestRequestIDInAccessLog(t *testing.T) {
	var buf syncBuffer
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Logger: log})

	postWithID(t, ts.URL, "trace-me-42")
	waitFor(t, func() bool {
		return strings.Contains(buf.String(), "request_id=trace-me-42")
	})
}

// TestRequestIDPropagatesToPeer: a cache miss that consults the ring
// owner forwards the originating request's ID on the outbound fetch.
func TestRequestIDPropagatesToPeer(t *testing.T) {
	var mu sync.Mutex
	var seenIDs []string
	capture := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seenIDs = append(seenIDs, r.Header.Get(trace.Header))
		mu.Unlock()
		http.NotFound(w, r)
	}))
	defer capture.Close()

	lnB, urlB := reserveURL(t)
	sb, err := New(Config{Logger: quietLogger(), Peer: fastPeerConfig(urlB, capture.URL)})
	if err != nil {
		t.Fatal(err)
	}
	startOn(t, sb, lnB)

	ring := peer.NewRing([]string{capture.URL, urlB})
	im := imageOwnedBy(t, ring, capture.URL)
	b, err := json.Marshal(CompressRequest{ProgramRef: ProgramRef{
		ImageB64: imageB64Of(im)}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, urlB+"/v1/compress", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "edge-req-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress returned %d, want 200", resp.StatusCode)
	}

	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, id := range seenIDs {
		if id == "edge-req-7" {
			found = true
		}
	}
	if !found {
		t.Errorf("peer fetch did not carry the request ID; saw %q", seenIDs)
	}
}

func imageB64Of(im *codepack.Image) string {
	return base64.StdEncoding.EncodeToString(im.Marshal())
}
