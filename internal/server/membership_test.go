package server

import (
	"net/http/httptest"
	"testing"
	"time"

	"codepack"
	"codepack/internal/peer"
)

// dynamicPeerConfig runs the membership loop at test speed: heartbeats
// every 25ms, suspicion in 150ms, death in 400ms — fast enough for
// waitFor, slow enough not to flap on a loaded CI box.
func dynamicPeerConfig(self string, seeds ...string) *peer.Config {
	return &peer.Config{
		Self:              self,
		Peers:             seeds,
		FetchTimeout:      500 * time.Millisecond,
		BreakerThreshold:  2,
		BreakerCooldown:   50 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		SuspectAfter:      150 * time.Millisecond,
		DeadAfter:         400 * time.Millisecond,
	}
}

// TestPeerAntiEntropyOnRingChange is the regression pin for anti-entropy
// running on ring changes, not only at startup: A caches an entry while
// its seed B is dead (so A owns the whole ring and startup anti-entropy
// had nothing to ship); when B comes up and joins, the resulting ring
// change on A must push the entry to its new owner without any request
// traffic.
func TestPeerAntiEntropyOnRingChange(t *testing.T) {
	lnA, urlA := reserveURL(t)
	lnB, urlB := reserveURL(t)

	sa, err := New(Config{Logger: quietLogger(), Peer: dynamicPeerConfig(urlA, urlB)})
	if err != nil {
		t.Fatal(err)
	}
	startOn(t, sa, lnA)

	// B never answered: A's failure detector ages the seed out of the ring.
	waitFor(t, func() bool { return len(sa.cluster.Members()) == 1 })

	// An entry whose owner in the *two-member* ring is B, compressed on A
	// while A is alone — owned locally for now, no replication happens.
	full := peer.NewRing([]string{urlA, urlB})
	im := imageOwnedBy(t, full, urlB)
	if resp := compressImageOn(t, urlA, im); resp.Cached {
		t.Fatal("first compression reported cached")
	}

	// B boots and joins via its seed A. The join is a ring change on A,
	// which must trigger an anti-entropy pass handing the entry to B.
	sb, err := New(Config{Logger: quietLogger(), Peer: dynamicPeerConfig(urlB, urlA)})
	if err != nil {
		t.Fatal(err)
	}
	startOn(t, sb, lnB)

	waitFor(t, func() bool { return len(sa.cluster.Members()) == 2 })
	waitFor(t, func() bool { return sb.cache.stats().Entries == 1 })

	resp := compressImageOn(t, urlB, im)
	if !resp.Cached {
		t.Error("entry pushed on ring change was not served from B's cache")
	}
	if got := metricValue(t, scrapeURL(t, urlB), "cpackd_peer_hits_total"); got != 0 {
		t.Errorf("cpackd_peer_hits_total on B = %v, want 0 (entry arrived via anti-entropy)", got)
	}
	body := scrapeURL(t, urlA)
	if got := metricValue(t, body, "cpackd_peer_ring_changes_total"); got < 2 {
		t.Errorf("cpackd_peer_ring_changes_total on A = %v, want >= 2 (death + rejoin)", got)
	}
	// Empty-cache passes are skipped before counting, so A's startup pass
	// (cache empty, B dead) never registered: the count is exactly the
	// ring-change passes that shipped data.
	if got := metricValue(t, body, "cpackd_peer_antientropy_passes_total"); got < 1 {
		t.Errorf("cpackd_peer_antientropy_passes_total on A = %v, want >= 1 (ring change)", got)
	}
}

// TestPeerGracefulLeaveHandsOff: a departing instance hands its digests
// to their post-departure owners during Close, so the survivor serves
// them warm with zero recompression.
func TestPeerGracefulLeaveHandsOff(t *testing.T) {
	lnA, urlA := reserveURL(t)
	lnB, urlB := reserveURL(t)

	// A is managed manually — the test closes it mid-flight.
	sa, err := New(Config{Logger: quietLogger(), Peer: dynamicPeerConfig(urlA, urlB)})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewUnstartedServer(sa.Handler())
	tsA.Listener.Close()
	tsA.Listener = lnA
	tsA.Start()
	sb, err := New(Config{Logger: quietLogger(), Peer: dynamicPeerConfig(urlB, urlA)})
	if err != nil {
		tsA.Close()
		sa.Close()
		t.Fatal(err)
	}
	startOn(t, sb, lnB)

	waitFor(t, func() bool {
		return len(sa.cluster.Members()) == 2 && len(sb.cluster.Members()) == 2
	})

	// Compressed on its owner A: stays local, never replicated to B.
	full := peer.NewRing([]string{urlA, urlB})
	im := imageOwnedBy(t, full, urlA)
	digest := codepack.ImageDigest(im)
	if resp := compressImageOn(t, urlA, im); resp.Cached {
		t.Fatal("first compression reported cached")
	}
	if n := sb.cache.stats().Entries; n != 0 {
		t.Fatalf("entry reached B before the leave (entries = %d)", n)
	}

	// Graceful exit: the leave handoff runs while A's endpoints still
	// answer, then the daemon is gone.
	sa.Close()
	tsA.Close()

	if _, ok := sb.cache.Payload(digest); !ok {
		t.Fatal("departing member did not hand its entry to the survivor")
	}
	waitFor(t, func() bool { return len(sb.cluster.Members()) == 1 })

	resp := compressImageOn(t, urlB, im)
	if !resp.Cached {
		t.Error("handed-off entry was not served from the survivor's cache")
	}
	if got := metricValue(t, scrapeURL(t, urlB), "cpackd_peer_hits_total"); got != 0 {
		t.Errorf("cpackd_peer_hits_total on B = %v, want 0 (entry arrived via leave handoff)", got)
	}
}
