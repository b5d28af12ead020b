package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"codepack"
	"codepack/internal/peer"
	"codepack/internal/trace"
)

// reserveURL grabs a loopback listener so a member's base URL is known
// before its server exists (the ring needs every URL up front).
func reserveURL(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln, "http://" + ln.Addr().String()
}

// fastPeerConfig keeps cluster tests snappy: tight timeouts, one retry,
// a two-failure breaker with a short cooldown. The membership loop is
// made quiescent (hour-scale heartbeats and timeouts) so these tests
// exercise the static seed topology; dynamic membership has its own
// tests.
func fastPeerConfig(self string, peers ...string) *peer.Config {
	return &peer.Config{
		Self:              self,
		Peers:             peers,
		FetchTimeout:      500 * time.Millisecond,
		Retries:           -1,
		BackoffBase:       time.Millisecond,
		BreakerThreshold:  2,
		BreakerCooldown:   50 * time.Millisecond,
		HeartbeatInterval: time.Hour,
		SuspectAfter:      time.Hour,
		DeadAfter:         2 * time.Hour,
	}
}

// startOn serves an already-built Server on a reserved listener.
func startOn(t *testing.T, s *Server, ln net.Listener) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// startPair boots two clustered instances on pre-reserved ports and
// returns them plus their base URLs.
func startPair(t *testing.T, cfgA, cfgB Config) (sa, sb *Server, urlA, urlB string) {
	t.Helper()
	lnA, urlA := reserveURL(t)
	lnB, urlB := reserveURL(t)
	cfgA.Peer = fastPeerConfig(urlA, urlB)
	cfgB.Peer = fastPeerConfig(urlB, urlA)
	if cfgA.Logger == nil {
		cfgA.Logger = quietLogger()
	}
	if cfgB.Logger == nil {
		cfgB.Logger = quietLogger()
	}
	sa, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	startOn(t, sa, lnA)
	sb, err = New(cfgB)
	if err != nil {
		sa.Close()
		t.Fatal(err)
	}
	startOn(t, sb, lnB)
	return sa, sb, urlA, urlB
}

// imageOwnedBy assembles program variants until one's digest lands on
// the wanted ring member, so tests can steer a digest to either side.
func imageOwnedBy(t *testing.T, ring *peer.Ring, owner string) *codepack.Image {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		im, err := codepack.Assemble(fmt.Sprintf("prog%d", i),
			strings.Replace(testAsm, "li   $s0, 50", fmt.Sprintf("li   $s0, %d", 50+i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(codepack.ImageDigest(im)) == owner {
			return im
		}
	}
	t.Fatalf("no generated program hashed to owner %s", owner)
	return nil
}

func compressImageOn(t *testing.T, url string, im *codepack.Image) CompressResponse {
	t.Helper()
	b64 := base64.StdEncoding.EncodeToString(im.Marshal())
	return decodeBody[CompressResponse](t, postJSON(t, url+"/v1/compress",
		CompressRequest{ProgramRef: ProgramRef{ImageB64: b64}}), http.StatusOK)
}

// TestPeerWarmTierHit is the headline warm-tier path: a digest
// compressed on its ring owner is served by the other instance as a
// peer hit with zero recompression.
func TestPeerWarmTierHit(t *testing.T) {
	_, _, urlA, urlB := startPair(t, Config{}, Config{})
	ring := peer.NewRing([]string{urlA, urlB}, peer.DefaultReplicas)
	im := imageOwnedBy(t, ring, urlA)

	first := compressImageOn(t, urlA, im)
	if first.Cached {
		t.Fatal("first compression on the owner reported cached")
	}
	second := compressImageOn(t, urlB, im)
	if !second.Cached {
		t.Error("peer-served compression did not report cached")
	}
	if second.Digest != first.Digest {
		t.Errorf("digest mismatch across instances: %s vs %s", second.Digest, first.Digest)
	}
	if got := metricValue(t, scrapeURL(t, urlB), "cpackd_peer_hits_total"); got != 1 {
		t.Errorf("cpackd_peer_hits_total on B = %v, want 1", got)
	}
}

// TestPeerReplication: an entry compressed away from its owner is
// replicated to the owner asynchronously, quarantined there, and then
// served locally (verified at use) without a peer fetch.
func TestPeerReplication(t *testing.T) {
	_, sb, urlA, urlB := startPair(t, Config{}, Config{})
	ring := peer.NewRing([]string{urlA, urlB}, peer.DefaultReplicas)
	im := imageOwnedBy(t, ring, urlB) // owned by B, compressed on A

	if resp := compressImageOn(t, urlA, im); resp.Cached {
		t.Fatal("first compression reported cached")
	}
	// Replication is async best-effort: wait for the entry to land on B.
	waitFor(t, func() bool { return sb.cache.stats().Entries == 1 })
	if got := sb.cache.stats().Unverified; got != 1 {
		t.Fatalf("replicated entry not quarantined: unverified = %d", got)
	}

	resp := compressImageOn(t, urlB, im)
	if !resp.Cached {
		t.Error("replicated entry was not served from cache")
	}
	if got := metricValue(t, scrapeURL(t, urlB), "cpackd_peer_hits_total"); got != 0 {
		t.Errorf("cpackd_peer_hits_total on B = %v, want 0 (local quarantine hit)", got)
	}
	if got := sb.cache.stats().Unverified; got != 0 {
		t.Errorf("entry still unverified after being served: %d", got)
	}
}

// TestPeerDownDegrades: with its peer dead, an instance keeps serving —
// every request succeeds via local compression, and the breaker opens
// so later misses skip the dead peer.
func TestPeerDownDegrades(t *testing.T) {
	lnDead, urlDead := reserveURL(t)
	lnB, urlB := reserveURL(t)
	lnDead.Close() // nothing ever listens here

	cfg := Config{Logger: quietLogger(), Peer: fastPeerConfig(urlB, urlDead)}
	sb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	startOn(t, sb, lnB)

	// Several distinct misses owned by the dead member: enough to trip
	// the two-failure breaker, with every request still succeeding.
	ring := peer.NewRing([]string{urlDead, urlB}, peer.DefaultReplicas)
	seen := 0
	for i := 0; seen < 4 && i < 10_000; i++ {
		im, err := codepack.Assemble(fmt.Sprintf("down%d", i),
			strings.Replace(testAsm, "li   $s1, 0", fmt.Sprintf("li   $s1, %d", i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(codepack.ImageDigest(im)) != urlDead {
			continue
		}
		seen++
		if resp := compressImageOn(t, urlB, im); resp.Cached {
			t.Errorf("miss %d reported cached with a dead peer", seen)
		}
	}

	body := scrapeURL(t, urlB)
	if got := metricValue(t, body, "cpackd_peer_errors_total"); got < 1 {
		t.Errorf("cpackd_peer_errors_total = %v, want >= 1", got)
	}
	opens := fmt.Sprintf("cpackd_peer_breaker_opens_total{peer=%q}", urlDead)
	if got := metricValue(t, body, opens); got < 1 {
		t.Errorf("%s = %v, want >= 1", opens, got)
	}
}

// TestPeerPoisonRejected: a malicious owner serving a well-formed but
// wrong payload (correct transport checksum) cannot poison the cache —
// the instance detects the mismatch, compresses locally, and answers
// correctly.
func TestPeerPoisonRejected(t *testing.T) {
	// The wrong program, compressed for real: parses fine, checksums
	// fine, decompresses to the wrong text.
	wrongIm, err := codepack.Assemble("wrong", strings.Replace(testAsm, "li   $s0, 50", "li   $s0, 99", 1))
	if err != nil {
		t.Fatal(err)
	}
	wrongComp, err := codepack.Compress(wrongIm)
	if err != nil {
		t.Fatal(err)
	}
	payload := wrongComp.Marshal()
	sum := sha256.Sum256(payload)

	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, peer.CachePathPrefix) {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(peer.SumHeader, hex.EncodeToString(sum[:]))
		w.Write(payload)
	}))
	defer evil.Close()

	lnB, urlB := reserveURL(t)
	sb, err := New(Config{Logger: quietLogger(), Peer: fastPeerConfig(urlB, evil.URL)})
	if err != nil {
		t.Fatal(err)
	}
	startOn(t, sb, lnB)

	ring := peer.NewRing([]string{evil.URL, urlB}, peer.DefaultReplicas)
	im := imageOwnedBy(t, ring, evil.URL)
	resp := compressImageOn(t, urlB, im)
	if resp.Cached {
		t.Error("poisoned fetch reported cached; should have compressed locally")
	}
	if got := metricValue(t, scrapeURL(t, urlB), "cpackd_peer_errors_total"); got < 1 {
		t.Errorf("cpackd_peer_errors_total = %v, want >= 1", got)
	}

	// The locally compressed (correct) entry must be what is cached:
	// decompressing the response payload yields the requested program.
	raw, err := base64.StdEncoding.DecodeString(resp.CompressedB64)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := codepack.UnmarshalCompressed(im.Name, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !compMatchesImage(comp, im) {
		t.Error("response payload does not decompress to the requested program")
	}
}

// TestPeerQuarantineVerifyAtUse: a replica PUT directly into the cache
// under the wrong digest survives in quarantine but is dropped the
// moment a request proves it false — it is never served.
func TestPeerQuarantineVerifyAtUse(t *testing.T) {
	_, sb, urlA, urlB := startPair(t, Config{}, Config{})
	ring := peer.NewRing([]string{urlA, urlB}, peer.DefaultReplicas)
	im := imageOwnedBy(t, ring, urlB)
	digest := codepack.ImageDigest(im)

	wrongIm, err := codepack.Assemble("wrong", strings.Replace(testAsm, "li   $s0, 50", "li   $s0, 77", 1))
	if err != nil {
		t.Fatal(err)
	}
	wrongComp, err := codepack.Compress(wrongIm)
	if err != nil {
		t.Fatal(err)
	}
	payload := wrongComp.Marshal()
	sum := sha256.Sum256(payload)

	req, err := http.NewRequest(http.MethodPut,
		urlB+peer.CachePathPrefix+digest, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(peer.SumHeader, hex.EncodeToString(sum[:]))
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, putResp.Body)
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusNoContent {
		t.Fatalf("replica PUT returned %d, want 204", putResp.StatusCode)
	}
	if got := sb.cache.stats().Unverified; got != 1 {
		t.Fatalf("unverified entries = %d, want 1", got)
	}

	// Compressing the real program must not trust the lying replica.
	resp := compressImageOn(t, urlB, im)
	if resp.Cached {
		t.Error("wrong replica was served as a cache hit")
	}
	raw, err := base64.StdEncoding.DecodeString(resp.CompressedB64)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := codepack.UnmarshalCompressed(im.Name, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !compMatchesImage(comp, im) {
		t.Error("response payload does not decompress to the requested program")
	}
}

// TestPeerAntiEntropy: entries persisted before clustering are offered
// to their ring owners on startup, warming the owner without a request.
func TestPeerAntiEntropy(t *testing.T) {
	dir := t.TempDir()
	lnA, urlA := reserveURL(t)
	lnB, urlB := reserveURL(t)
	ring := peer.NewRing([]string{urlA, urlB}, peer.DefaultReplicas)
	im := imageOwnedBy(t, ring, urlB)

	// First life: A standalone with a durable cache; the entry lands on
	// disk. (Any port will do; ring placement only matters later.)
	sa1, err := New(Config{Logger: quietLogger(), CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(sa1.Handler())
	if resp := compressImageOn(t, ts1.URL, im); resp.Cached {
		t.Fatal("first compression reported cached")
	}
	ts1.Close()
	sa1.Close()

	// Second life: A reboots into a two-member ring. Startup
	// anti-entropy offers the persisted digest to its owner B.
	sb, err := New(Config{Logger: quietLogger(), Peer: fastPeerConfig(urlB, urlA)})
	if err != nil {
		t.Fatal(err)
	}
	startOn(t, sb, lnB)
	sa2, err := New(Config{Logger: quietLogger(), CacheDir: dir, Peer: fastPeerConfig(urlA, urlB)})
	if err != nil {
		t.Fatal(err)
	}
	startOn(t, sa2, lnA)

	waitFor(t, func() bool { return sb.cache.stats().Entries == 1 })
	resp := compressImageOn(t, urlB, im)
	if !resp.Cached {
		t.Error("anti-entropy warmed entry was not served from cache")
	}
	if got := metricValue(t, scrapeURL(t, urlB), "cpackd_peer_hits_total"); got != 0 {
		t.Errorf("cpackd_peer_hits_total on B = %v, want 0 (entry arrived via anti-entropy)", got)
	}
}

// TestPeerConcurrentStress hammers both instances of a pair with
// overlapping programs — concurrent peer fetches, local compressions,
// replications and scrapes. Run under -race this is the load-bearing
// check on the warm tier's locking.
func TestPeerConcurrentStress(t *testing.T) {
	_, _, urlA, urlB := startPair(t, Config{}, Config{})

	images := make([]string, 6)
	for i := range images {
		im, err := codepack.Assemble(fmt.Sprintf("stress%d", i),
			strings.Replace(testAsm, "li   $s0, 50", fmt.Sprintf("li   $s0, %d", 200+i), 1))
		if err != nil {
			t.Fatal(err)
		}
		images[i] = base64.StdEncoding.EncodeToString(im.Marshal())
	}

	urls := []string{urlA, urlB}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				url := urls[(g+i)%2]
				if (g+i)%5 == 4 {
					if resp, err := http.Get(url + "/metrics"); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					continue
				}
				code := postCode(url+"/v1/compress",
					CompressRequest{ProgramRef: ProgramRef{ImageB64: images[(g*3+i)%len(images)]}})
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Errorf("compress on %s returned %d", url, code)
				}
			}
		}(g)
	}
	wg.Wait()
}

// imageWithOwners assembles program variants until one's digest has
// exactly the wanted replica placement, in successor-list order, so
// replication tests can steer which members own a digest and in what
// order the fetch walk visits them. base keeps separate searches in
// disjoint program ranges — the program name is not part of the digest,
// so two searches with the same placement condition would otherwise
// land on the same program.
func imageWithOwners(t *testing.T, ring *peer.Ring, tag string, base int, want ...string) *codepack.Image {
	t.Helper()
	for i := base; i < base+5_000; i++ {
		im, err := codepack.Assemble(fmt.Sprintf("%s%d", tag, i),
			strings.Replace(testAsm, "li   $s0, 50", fmt.Sprintf("li   $s0, %d", 50+i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(ring.Owners(codepack.ImageDigest(im), len(want)), want) {
			return im
		}
	}
	t.Fatalf("no generated program placed its replicas on %v in order", want)
	return nil
}

// replicatedConfig is fastPeerConfig at R=2 with a one-failure breaker
// that stays open for the whole test, so a single failed contact pins a
// replica as skipped.
func replicatedConfig(self string, peers ...string) *peer.Config {
	pc := fastPeerConfig(self, peers...)
	pc.ReplicationFactor = 2
	pc.BreakerThreshold = 1
	pc.BreakerCooldown = time.Hour
	return pc
}

// replicaOutcomes indexes a trace's peer-replica spans by their replica
// position, mapping each to its outcome attr.
func replicaOutcomes(t *testing.T, tr trace.Trace) map[int]string {
	t.Helper()
	out := make(map[int]string)
	for _, sp := range tr.Spans {
		if sp.Name != "peer-replica" {
			continue
		}
		ri, ok := sp.Attrs["replica"].(int)
		if !ok {
			t.Fatalf("peer-replica span without replica attr: %v", sp.Attrs)
		}
		out[ri], _ = sp.Attrs["outcome"].(string)
	}
	return out
}

// TestPeerReplicaFallthroughOnBreakerOpen: with R=2 and the primary
// replica down, a fetch serves from replica 2 — first by failing the
// contact (recorded on the peer-fetch span tree), then, once the
// breaker is open, by skipping the dead primary outright.
func TestPeerReplicaFallthroughOnBreakerOpen(t *testing.T) {
	lnDead, urlDead := reserveURL(t)
	lnDead.Close() // the primary replica: nothing ever listens here
	lnA, urlA := reserveURL(t)
	lnB, urlB := reserveURL(t)

	sa, err := New(Config{Logger: quietLogger(), Peer: replicatedConfig(urlA, urlDead, urlB)})
	if err != nil {
		t.Fatal(err)
	}
	startOn(t, sa, lnA)
	sb, err := New(Config{Logger: quietLogger(), Peer: replicatedConfig(urlB, urlDead, urlA)})
	if err != nil {
		t.Fatal(err)
	}
	startOn(t, sb, lnB)

	ring := peer.NewRing([]string{urlDead, urlA, urlB}, peer.DefaultReplicas)
	im1 := imageWithOwners(t, ring, "ft-a", 0, urlDead, urlA)
	im2 := imageWithOwners(t, ring, "ft-b", 5_000, urlDead, urlA)

	// Warm the surviving replica: A owns both digests second and caches
	// the compression locally.
	compressImageOn(t, urlA, im1)
	compressImageOn(t, urlA, im2)

	// First fetch on B: the dead primary fails the contact, the walk
	// falls through to A, and the request is still a warm hit.
	if resp := compressImageOn(t, urlB, im1); !resp.Cached {
		t.Error("fallthrough fetch did not report cached")
	}
	tr := lastTrace(t, sb, "compress")
	oc := replicaOutcomes(t, tr)
	if oc[1] != "unavailable" || oc[2] != "hit" {
		t.Errorf("first walk outcomes = %v, want replica 1 unavailable, replica 2 hit:\n%s", oc, tr.Tree())
	}

	// Second fetch: the one failure opened the dead primary's breaker,
	// so the walk skips it without paying a connection attempt.
	if resp := compressImageOn(t, urlB, im2); !resp.Cached {
		t.Error("breaker-skip fetch did not report cached")
	}
	waitFor(t, func() bool { return len(sb.tracer.Recent(0, "compress", 2)) >= 2 })
	tr = sb.tracer.Recent(0, "compress", 2)[0]
	oc = replicaOutcomes(t, tr)
	if oc[1] != "breaker-skip" || oc[2] != "hit" {
		t.Errorf("second walk outcomes = %v, want replica 1 breaker-skip, replica 2 hit:\n%s", oc, tr.Tree())
	}

	body := scrapeURL(t, urlB)
	if got := metricValue(t, body, "cpackd_peer_replica_fallthroughs_total"); got != 2 {
		t.Errorf("cpackd_peer_replica_fallthroughs_total = %v, want 2", got)
	}
	if got := metricValue(t, body, "cpackd_peer_hits_total"); got != 2 {
		t.Errorf("cpackd_peer_hits_total = %v, want 2", got)
	}
	if got := metricValue(t, body, "cpackd_peer_replica_factor"); got != 2 {
		t.Errorf("cpackd_peer_replica_factor = %v, want 2", got)
	}
}

// scrapeURL is scrape for servers not wrapped in an httptest.Server.
func scrapeURL(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
