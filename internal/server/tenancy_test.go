package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codepack"
	"codepack/internal/peer"
	"codepack/internal/tenant"
)

// signedRegistry builds a tenant registry whose only non-default config
// is the cluster signing key.
func signedRegistry(key string) *tenant.Registry {
	snap := tenant.OpenSnapshot()
	snap.ClusterKey = []byte(key)
	return tenant.NewRegistry(snap)
}

// doReq performs an arbitrary request and returns the status code.
func doReq(t *testing.T, method, url string, header http.Header) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPeerSignedClusterWarmHit: with a cluster key configured on both
// members, node-to-node traffic is HMAC-signed end to end — the warm
// tier still serves cross-instance hits — while unsigned or mis-signed
// requests against /internal/v1/* are rejected with 401.
func TestPeerSignedClusterWarmHit(t *testing.T) {
	const clusterKey = "itest-cluster-key-6b1f9d2c"
	_, _, urlA, urlB := startPair(t,
		Config{Tenants: signedRegistry(clusterKey)},
		Config{Tenants: signedRegistry(clusterKey)})
	ring := peer.NewRing([]string{urlA, urlB})
	im := imageOwnedBy(t, ring, urlA)

	// The public endpoints stay open (anon enabled): the warm-tier flow
	// works exactly as in the unsigned cluster.
	first := compressImageOn(t, urlA, im)
	if first.Cached {
		t.Fatal("first compression on the owner reported cached")
	}
	second := compressImageOn(t, urlB, im)
	if !second.Cached {
		t.Error("peer-served compression did not report cached: signed fetch failed")
	}
	if got := metricValue(t, scrapeURL(t, urlB), "cpackd_peer_hits_total"); got != 1 {
		t.Errorf("cpackd_peer_hits_total on B = %v, want 1", got)
	}

	// Unsigned internal fetch: rejected.
	path := peer.CachePathPrefix + first.Digest
	if code := doReq(t, http.MethodGet, urlA+path, nil); code != http.StatusUnauthorized {
		t.Errorf("unsigned internal GET returned %d, want 401", code)
	}
	// Signed with the wrong key: rejected.
	bad := http.Header{}
	bad.Set(tenant.InternalHeader,
		tenant.SignInternal([]byte("some-other-key-1234"), http.MethodGet, path, nil, time.Now()))
	if code := doReq(t, http.MethodGet, urlA+path, bad); code != http.StatusUnauthorized {
		t.Errorf("mis-signed internal GET returned %d, want 401", code)
	}
	// Signed with the right key: served.
	good := http.Header{}
	good.Set(tenant.InternalHeader,
		tenant.SignInternal([]byte(clusterKey), http.MethodGet, path, nil, time.Now()))
	if code := doReq(t, http.MethodGet, urlA+path, good); code != http.StatusOK {
		t.Errorf("correctly signed internal GET returned %d, want 200", code)
	}
	// The two rejections are visible on the auth-failure counter.
	if got := metricValue(t, scrapeURL(t, urlA), `cpackd_auth_failures_total{kind="internal"}`); got < 2 {
		t.Errorf("internal auth failures on A = %v, want >= 2", got)
	}

	// Unsigned membership gossip is rejected too: the internal surface
	// is closed cluster-wide, not just the cache paths.
	resp, err := http.Post(urlA+peer.HeartbeatPath, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unsigned membership POST returned %d, want 401", resp.StatusCode)
	}
}

// TestTenantAdmissionReloadStress hammers authenticated endpoints from
// many goroutines while the tenant config is concurrently hot-reloaded
// (the SIGHUP path) with changing limits. Run under -race this proves
// admission, quota accounting and reload share no unsynchronized state;
// in any mode it proves requests never draw a 5xx or a dropped tenant.
func TestTenantAdmissionReloadStress(t *testing.T) {
	mkCfg := func(rate int) string {
		return fmt.Sprintf(
			"tenant alpha key=alpha-key-11112222 weight=3 rate=%d\n"+
				"tenant beta key=beta-key-33334444 weight=1 quota=1MiB\n"+
				"anon weight=1\n", rate)
	}
	snap, err := tenant.ParseConfig(mkCfg(50), "stress")
	if err != nil {
		t.Fatal(err)
	}
	reg := tenant.NewRegistry(snap)
	_, ts := newTestServer(t, Config{LightWorkers: 4, Tenants: reg})

	im, err := codepack.Assemble("stress", testAsm)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(CompressRequest{ProgramRef: ProgramRef{
		ImageB64: base64.StdEncoding.EncodeToString(im.Marshal())}})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var reloadWG sync.WaitGroup
	// Reloader: swap configs as fast as possible, alternating limits.
	reloadWG.Add(1)
	go func() {
		defer reloadWG.Done()
		for i := 0; !stop.Load(); i++ {
			s, err := tenant.ParseConfig(mkCfg(50+i%7), "stress-reload")
			if err != nil {
				t.Error(err)
				return
			}
			reg.Reload(s)
		}
	}()

	keys := []string{"alpha-key-11112222", "beta-key-33334444", ""}
	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compress",
					bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if key := keys[(g+i)%len(keys)]; key != "" {
					req.Header.Set("Authorization", "Bearer "+key)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					bad.Add(1)
					continue
				}
				resp.Body.Close()
				// 200 (admitted) and 429 (limited) are both legal under
				// the racing limits; anything else is a wiring bug.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("got status %d", resp.StatusCode)
				}
			}
		}(g)
	}
	// Workers finish first, then the reloader is released; a watchdog
	// bounds the whole run on a wedged box.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress test wedged")
	}
	stop.Store(true)
	reloadWG.Wait()
	if n := bad.Load(); n > 0 {
		t.Errorf("%d transport errors under stress", n)
	}
}
