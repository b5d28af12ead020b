package peer

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codepack/internal/trace"
)

func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// memSource is an in-memory Source for handler tests.
type memSource struct {
	mu        sync.Mutex
	m         map[string][]byte
	rejectPut error
}

func newMemSource() *memSource { return &memSource{m: make(map[string][]byte)} }

func (s *memSource) Payload(d string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[d]
	return p, ok
}

func (s *memSource) Accept(d string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rejectPut != nil {
		return s.rejectPut
	}
	s.m[d] = append([]byte(nil), payload...)
	return nil
}

func (s *memSource) Missing(ds []string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, d := range ds {
		if _, ok := s.m[d]; !ok {
			out = append(out, d)
		}
	}
	return out
}

// mountHandler wires a Handler onto a mux the way internal/server does.
func mountHandler(h *Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /internal/v1/cache/{digest}", h.Get)
	mux.HandleFunc("PUT /internal/v1/cache/{digest}", h.Put)
	mux.HandleFunc("POST /internal/v1/cache/offer", h.Offer)
	return mux
}

func testDigestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// newTestCluster builds a 2-member cluster whose only peer is the given
// URL; self is a URL that is never dialed. The membership loop is made
// quiescent (hour-scale heartbeats and timeouts) so these tests see the
// static seed topology; membership dynamics have their own tests.
func newTestCluster(t *testing.T, peerURL string, tweak func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Self:              "http://self.invalid:1",
		Peers:             []string{peerURL},
		FetchTimeout:      2 * time.Second,
		BreakerThreshold:  2,
		BreakerCooldown:   50 * time.Millisecond,
		HeartbeatInterval: time.Hour,
		SuspectAfter:      time.Hour,
		DeadAfter:         2 * time.Hour,
		Logger:            quiet(),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// peerOwnedDigest returns a digest-shaped key that c's ring assigns to
// the (single) peer rather than to self.
func peerOwnedDigest(t *testing.T, c *Cluster, tag string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		d := testDigestOf([]byte(fmt.Sprintf("%s-%d", tag, i)))
		if owner := c.Owner(d); owner != c.Self() {
			return d
		}
	}
	t.Fatal("no peer-owned digest found")
	return ""
}

func selfOwnedDigest(t *testing.T, c *Cluster, tag string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		d := testDigestOf([]byte(fmt.Sprintf("%s-%d", tag, i)))
		if c.Owner(d) == c.Self() {
			return d
		}
	}
	t.Fatal("no self-owned digest found")
	return ""
}

func TestNewClusterValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no self", Config{Peers: []string{"http://a:1"}}},
		{"no peers", Config{Self: "http://a:1"}},
		{"self is only member", Config{Self: "http://a:1", Peers: []string{"http://a:1"}}},
		{"bad url", Config{Self: "http://a:1", Peers: []string{"not a url"}}},
		{"relative url", Config{Self: "http://a:1", Peers: []string{"b:1"}}},
	} {
		if _, err := NewCluster(tc.cfg); err == nil {
			t.Errorf("%s: NewCluster accepted invalid config", tc.name)
		}
	}
}

func TestFetchHitMissAndSelf(t *testing.T) {
	src := newMemSource()
	ts := httptest.NewServer(mountHandler(NewHandler(src, quiet())))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, nil)

	payload := []byte("payload-bytes")
	hitD := peerOwnedDigest(t, c, "hit")
	src.Accept(hitD, payload)

	got, owner, out := c.Fetch(context.Background(), hitD, nil)
	if out != FetchHit || !bytes.Equal(got, payload) || owner != ts.URL {
		t.Fatalf("Fetch = (%q, %q, %d), want hit of %q from %s", got, owner, out, payload, ts.URL)
	}

	missD := peerOwnedDigest(t, c, "miss")
	if _, _, out := c.Fetch(context.Background(), missD, nil); out != FetchMiss {
		t.Fatalf("Fetch(absent) outcome = %d, want FetchMiss", out)
	}

	selfD := selfOwnedDigest(t, c, "self")
	if _, _, out := c.Fetch(context.Background(), selfD, nil); out != FetchSelf {
		t.Fatalf("Fetch(self-owned) outcome = %d, want FetchSelf", out)
	}

	st := c.Stats()
	if st.FetchHits != 1 || st.FetchMisses != 1 || st.FetchErrors != 0 {
		t.Errorf("stats %+v, want 1 hit / 1 miss / 0 errors", st)
	}
}

func TestFetchRejectsChecksumMismatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(SumHeader, testDigestOf([]byte("something else")))
		w.Write([]byte("actual body"))
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, nil)

	d := peerOwnedDigest(t, c, "sum")
	if _, _, out := c.Fetch(context.Background(), d, nil); out != FetchUnavailable {
		t.Fatalf("outcome = %d, want FetchUnavailable on checksum mismatch", out)
	}
	if st := c.Stats(); st.FetchErrors == 0 {
		t.Error("checksum mismatch not counted as a fetch error")
	}
}

// TestFetchCanceledChargesNoBreaker: a fetch cut short by the caller's
// own deadline says nothing about the owner, so it charges no breaker
// and counts no fetch error — otherwise a few client-side cancels in a
// row would open a healthy peer's breaker and mark it suspect.
func TestFetchCanceledChargesNoBreaker(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, CachePathPrefix) {
			<-r.Context().Done() // the owner stalls until the caller gives up
			return
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, nil)

	d := peerOwnedDigest(t, c, "cancel")
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, _, out := c.Fetch(ctx, d, nil)
		cancel()
		if out != FetchUnavailable {
			t.Fatalf("fetch %d: outcome = %d, want FetchUnavailable", i, out)
		}
	}
	if h := c.Health(); len(h) != 1 || h[0].Fails != 0 || h[0].State != "closed" {
		t.Errorf("owner health after canceled fetches = %+v, want closed with 0 failures", h)
	}
	if st := c.Stats(); st.FetchErrors != 0 {
		t.Errorf("fetch errors = %d, want 0 for canceled fetches", st.FetchErrors)
	}
}

// TestFetchVerifyFailuresTripBreaker: a replica whose payloads keep
// failing the caller's verification is charged once per fetch and never
// credited first, so its breaker opens at the threshold.
func TestFetchVerifyFailuresTripBreaker(t *testing.T) {
	src := newMemSource()
	ts := httptest.NewServer(mountHandler(NewHandler(src, quiet())))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, nil) // threshold 2
	d := peerOwnedDigest(t, c, "impostor")
	src.Accept(d, []byte("not the program"))

	reject := func(string, []byte) bool { return false }
	for i := 0; i < 2; i++ {
		if _, _, out := c.Fetch(context.Background(), d, reject); out != FetchUnavailable {
			t.Fatalf("fetch %d: outcome = %d, want FetchUnavailable", i, out)
		}
	}
	if h := c.Health(); len(h) != 1 || h[0].State != "open" {
		t.Fatalf("health after failed verifications = %+v, want open", h)
	}
	if st := c.Stats(); st.FetchErrors != 2 || st.FetchHits != 0 {
		t.Errorf("stats %+v, want 2 errors and 0 hits", st)
	}
}

// TestCallLabelsRequests pins the one outbound request path: trace and
// content headers, a SHA-256 on every body, and an oversized reply
// reported as an error.
func TestCallLabelsRequests(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, MembershipPathPrefix) {
			http.NotFound(w, r)
			return
		}
		got.Store(r.Header.Clone())
		w.Write([]byte("12345678"))
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, nil)
	ctx := trace.WithID(context.Background(), "req-call-1")

	body := []byte(`{"digests":[]}`)
	resp, reply, err := c.call(ctx, http.MethodPost, ts.URL, "/x", "application/json", body, 8)
	if err != nil || resp.StatusCode != http.StatusOK || string(reply) != "12345678" {
		t.Fatalf("call = (%v, %q, %v), want 200 with the 8-byte reply", resp, reply, err)
	}
	h := got.Load().(http.Header)
	if h.Get(SumHeader) != testDigestOf(body) || h.Get("Content-Type") != "application/json" ||
		h.Get(trace.Header) != "req-call-1" {
		t.Errorf("POST headers = %v, want body sum, content type and trace ID", h)
	}

	if _, _, err := c.call(ctx, http.MethodGet, ts.URL, "/x", "", nil, 7); err == nil {
		t.Error("a reply over the limit was not an error")
	}
	h = got.Load().(http.Header)
	if h.Get(SumHeader) != "" || h.Get("Content-Type") != "" {
		t.Errorf("GET without a body carried body headers: %v", h)
	}
}

// TestBreakerCutsOffDeadPeerAndRecovers drives the full lifecycle
// against a peer that dies and comes back.
func TestBreakerCutsOffDeadPeerAndRecovers(t *testing.T) {
	src := newMemSource()
	inner := mountHandler(NewHandler(src, quiet()))
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close() // slam the connection: a transport-level failure
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, func(cfg *Config) {
		cfg.BreakerThreshold = 2
		cfg.BreakerCooldown = 30 * time.Millisecond
	})
	d := peerOwnedDigest(t, c, "life")
	src.Accept(d, []byte("v"))

	if _, _, out := c.Fetch(context.Background(), d, nil); out != FetchHit {
		t.Fatal("healthy peer did not serve a hit")
	}

	down.Store(true)
	for i := 0; i < 2; i++ { // threshold failures trip the breaker
		if _, _, out := c.Fetch(context.Background(), d, nil); out != FetchUnavailable {
			t.Fatalf("failure %d: outcome not FetchUnavailable", i)
		}
	}
	health := c.Health()
	if len(health) != 1 || health[0].State != "open" || health[0].Opens != 1 {
		t.Fatalf("health after failures = %+v, want open with 1 open", health)
	}
	// While open, fetches are skipped without touching the network.
	before := c.Stats().BreakerSkips
	if _, _, out := c.Fetch(context.Background(), d, nil); out != FetchUnavailable {
		t.Fatal("open breaker did not report unavailable")
	}
	if c.Stats().BreakerSkips != before+1 {
		t.Error("open-breaker fetch was not counted as a skip")
	}

	down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, out := c.Fetch(context.Background(), d, nil); out == FetchHit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after the peer came back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h := c.Health(); h[0].State != "closed" {
		t.Errorf("breaker state after recovery = %s, want closed", h[0].State)
	}
}

func TestReplicateDeliversToOwner(t *testing.T) {
	src := newMemSource()
	ts := httptest.NewServer(mountHandler(NewHandler(src, quiet())))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, nil)

	payload := []byte("replicated-payload")
	d := peerOwnedDigest(t, c, "repl")
	c.Replicate(context.Background(), d, payload)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, ok := src.Payload(d); ok {
			if !bytes.Equal(got, payload) {
				t.Fatal("replicated payload corrupted")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replication never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Self-owned digests are not replicated anywhere.
	c.Replicate(context.Background(), selfOwnedDigest(t, c, "replself"), payload)
	if st := c.Stats(); st.ReplicationsEnqueued != 1 {
		t.Errorf("enqueued = %d, want 1 (self-owned push must not enqueue)", st.ReplicationsEnqueued)
	}
}

func TestAntiEntropyWarmsOwner(t *testing.T) {
	src := newMemSource()
	ts := httptest.NewServer(mountHandler(NewHandler(src, quiet())))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, func(cfg *Config) { cfg.OfferBatch = 2 })

	// Five peer-owned entries locally, one of which the owner already
	// has; plus one self-owned entry that must not be offered.
	local := make(map[string][]byte)
	var digests []string
	for i := 0; i < 5; i++ {
		d := peerOwnedDigest(t, c, fmt.Sprintf("ae-%d", i))
		local[d] = []byte("payload-" + d[:8])
		digests = append(digests, d)
	}
	src.Accept(digests[0], local[digests[0]])
	selfD := selfOwnedDigest(t, c, "ae-self")
	local[selfD] = []byte("self-payload")
	digests = append(digests, selfD)

	c.AntiEntropy(context.Background(), digests, func(d string) ([]byte, bool) {
		p, ok := local[d]
		return p, ok
	})

	for _, d := range digests[:5] {
		got, ok := src.Payload(d)
		if !ok || !bytes.Equal(got, local[d]) {
			t.Fatalf("owner missing anti-entropy digest %s", d[:8])
		}
	}
	if _, ok := src.Payload(selfD); ok {
		t.Error("self-owned digest was pushed to a peer")
	}
	st := c.Stats()
	if st.OfferedDigests != 5 {
		t.Errorf("offered %d digests, want 5", st.OfferedDigests)
	}
	if st.ReplicationsSent != 4 {
		t.Errorf("pushed %d entries, want 4 (owner already had one)", st.ReplicationsSent)
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	src := newMemSource()
	ts := httptest.NewServer(mountHandler(NewHandler(src, quiet())))
	defer ts.Close()
	client := ts.Client()

	good := testDigestOf([]byte("x"))

	// Malformed digests.
	for _, path := range []string{
		CachePathPrefix + "nothex",
		CachePathPrefix + good[:40],
	} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
		}
	}

	// PUT with a checksum that does not match the body.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+CachePathPrefix+good,
		bytes.NewReader([]byte("body")))
	req.Header.Set(SumHeader, testDigestOf([]byte("different")))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT with bad sum = %d, want 400", resp.StatusCode)
	}
	if _, ok := src.Payload(good); ok {
		t.Error("corrupt PUT was stored")
	}

	// PUT whose payload the source rejects (does not parse).
	src.rejectPut = fmt.Errorf("does not parse")
	body := []byte("garbage")
	req, _ = http.NewRequest(http.MethodPut, ts.URL+CachePathPrefix+good, bytes.NewReader(body))
	req.Header.Set(SumHeader, testDigestOf(body))
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("rejected PUT = %d, want 422", resp.StatusCode)
	}

	// Oversized offer.
	many := offerRequest{Digests: make([]string, maxOfferDigests+1)}
	raw, _ := json.Marshal(many)
	resp, err = client.Post(ts.URL+OfferPath, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized offer = %d, want 400", resp.StatusCode)
	}
}

// newReplicatedCluster builds a 3-member view (self plus two httptest
// peers) at ReplicationFactor 2, membership quiescent.
func newReplicatedCluster(t *testing.T, urlA, urlB string, tweak func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Self:              "http://self.invalid:1",
		Peers:             []string{urlA, urlB},
		ReplicationFactor: 2,
		FetchTimeout:      2 * time.Second,
		BreakerThreshold:  2,
		BreakerCooldown:   50 * time.Millisecond,
		HeartbeatInterval: time.Hour,
		SuspectAfter:      time.Hour,
		DeadAfter:         2 * time.Hour,
		Logger:            quiet(),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// digestOwnedByBoth finds a digest whose R=2 replica set is exactly
// [a, b] in that successor order (a is the primary).
func digestOwnedByBoth(t *testing.T, c *Cluster, a, b, tag string) string {
	t.Helper()
	for i := 0; i < 50000; i++ {
		d := testDigestOf([]byte(fmt.Sprintf("%s-%d", tag, i)))
		owners := c.Owners(d)
		if len(owners) == 2 && owners[0] == a && owners[1] == b {
			return d
		}
	}
	t.Fatalf("no digest found with owners [%s, %s]", a, b)
	return ""
}

// TestReplicateFansOutToAllReplicas: at R=2 a write lands on both
// remote owners, not just the primary.
func TestReplicateFansOutToAllReplicas(t *testing.T) {
	srcA, srcB := newMemSource(), newMemSource()
	tsA := httptest.NewServer(mountHandler(NewHandler(srcA, quiet())))
	defer tsA.Close()
	tsB := httptest.NewServer(mountHandler(NewHandler(srcB, quiet())))
	defer tsB.Close()
	c := newReplicatedCluster(t, tsA.URL, tsB.URL, nil)

	payload := []byte("fan-out-payload")
	d := digestOwnedByBoth(t, c, tsA.URL, tsB.URL, "fanout")
	c.Replicate(context.Background(), d, payload)

	deadline := time.Now().Add(5 * time.Second)
	for {
		pa, oka := srcA.Payload(d)
		pb, okb := srcB.Payload(d)
		if oka && okb {
			if !bytes.Equal(pa, payload) || !bytes.Equal(pb, payload) {
				t.Fatal("replicated payload corrupted")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication incomplete: A=%v B=%v", oka, okb)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.Stats(); st.ReplicationsSent != 2 {
		t.Errorf("sent = %d, want 2 (one push per replica)", st.ReplicationsSent)
	}
}

// TestFetchFallsThroughToSecondReplica: replica 1 lacks the entry,
// replica 2 serves it; the walk counts a fallthrough.
func TestFetchFallsThroughToSecondReplica(t *testing.T) {
	srcA, srcB := newMemSource(), newMemSource()
	tsA := httptest.NewServer(mountHandler(NewHandler(srcA, quiet())))
	defer tsA.Close()
	tsB := httptest.NewServer(mountHandler(NewHandler(srcB, quiet())))
	defer tsB.Close()
	c := newReplicatedCluster(t, tsA.URL, tsB.URL, nil)

	payload := []byte("replica-2-payload")
	d := digestOwnedByBoth(t, c, tsA.URL, tsB.URL, "fall")
	srcB.Accept(d, payload)

	got, owner, out := c.Fetch(context.Background(), d, nil)
	if out != FetchHit || !bytes.Equal(got, payload) || owner != tsB.URL {
		t.Fatalf("Fetch = (%q, %s, %d), want hit from the second replica", got, owner, out)
	}
	st := c.Stats()
	if st.ReplicaFallthroughs != 1 {
		t.Errorf("fallthroughs = %d, want 1", st.ReplicaFallthroughs)
	}
	if st.FetchMisses != 1 {
		t.Errorf("misses = %d, want 1 (the primary's 404)", st.FetchMisses)
	}
}

// TestFetchMissWhenReachableReplicaAnswers404: a walk where one replica
// answers a clean 404 and the other cannot be reached is a definitive
// miss, attributed to the replica that answered — the caller compresses
// instead of treating the tier as down.
func TestFetchMissWhenReachableReplicaAnswers404(t *testing.T) {
	tsA := httptest.NewServer(http.NotFoundHandler())
	defer tsA.Close()
	tsB := httptest.NewServer(http.NotFoundHandler())
	urlB := tsB.URL
	tsB.Close() // replica 2 refuses connections
	c := newReplicatedCluster(t, tsA.URL, urlB, nil)

	d := digestOwnedByBoth(t, c, urlB, tsA.URL, "miss")
	got, owner, out := c.Fetch(context.Background(), d, nil)
	if out != FetchMiss || got != nil || owner != tsA.URL {
		t.Fatalf("Fetch = (%q, %s, %d), want FetchMiss from %s", got, owner, out, tsA.URL)
	}
}

// TestFetchVerifyFailureFallsThrough: a replica serving bytes that fail
// the caller's verification is charged and skipped; the next replica's
// verified payload is returned.
func TestFetchVerifyFailureFallsThrough(t *testing.T) {
	good := []byte("good-payload")
	evil := []byte("evil-payload")
	srcB := newMemSource()
	tsB := httptest.NewServer(mountHandler(NewHandler(srcB, quiet())))
	defer tsB.Close()
	// tsA always serves the evil payload with a correct transport sum.
	tsA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, CachePathPrefix) {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(SumHeader, testDigestOf(evil))
		w.Write(evil)
	}))
	defer tsA.Close()
	c := newReplicatedCluster(t, tsA.URL, tsB.URL, nil)

	d := digestOwnedByBoth(t, c, tsA.URL, tsB.URL, "verify")
	srcB.Accept(d, good)

	verify := func(owner string, payload []byte) bool { return bytes.Equal(payload, good) }
	got, owner, out := c.Fetch(context.Background(), d, verify)
	if out != FetchHit || !bytes.Equal(got, good) || owner != tsB.URL {
		t.Fatalf("Fetch = (%q, %s, %d), want verified hit from B", got, owner, out)
	}
	st := c.Stats()
	if st.FetchErrors == 0 {
		t.Error("verification failure not counted as a fetch error")
	}
	if st.ReplicaFallthroughs != 1 {
		t.Errorf("fallthroughs = %d, want 1", st.ReplicaFallthroughs)
	}
}

// TestFetchForwardsTraceID pins request-ID propagation: the ID on the
// inbound request context must ride the outbound peer call.
func TestFetchForwardsTraceID(t *testing.T) {
	var gotID atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, CachePathPrefix) {
			gotID.Store(r.Header.Get(trace.Header))
		}
		http.Error(w, "not cached", http.StatusNotFound)
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, nil)

	ctx := trace.WithID(context.Background(), "req-abc-123")
	c.Fetch(ctx, peerOwnedDigest(t, c, "trace"), nil)
	if got, _ := gotID.Load().(string); got != "req-abc-123" {
		t.Errorf("peer saw request ID %q, want req-abc-123", got)
	}
}
