package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"codepack"
	"codepack/internal/peer"
)

// freeURL reserves a kernel-assigned loopback port and releases it so a
// daemon can bind it. The address must be known before either daemon
// starts: both appear in each other's -peers flag.
func freeURL(t *testing.T) (addr, url string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr = ln.Addr().String()
	ln.Close()
	return addr, "http://" + addr
}

// asmOwnedBy generates assembly variants until one's image digest lands
// on the wanted ring member. The server assembles inline asm under the
// fixed name "request", but the digest covers only the marshalled image
// (entry, bases, text, data), so the test can predict it with any name.
func asmOwnedBy(t *testing.T, ring *peer.Ring, owner string, salt int) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		asm := strings.Replace(testAsm, "li   $s0, 50",
			fmt.Sprintf("li   $s0, %d", 50+salt*10_000+i), 1)
		im, err := codepack.Assemble("request", asm)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Owner(codepack.ImageDigest(im)) == owner {
			return asm
		}
	}
	t.Fatalf("no generated program hashed to owner %s", owner)
	return ""
}

// compressAsm is daemon.compress for an arbitrary program.
func (d *daemon) compressAsm(t *testing.T, asm string) compressReply {
	t.Helper()
	body, err := json.Marshal(map[string]string{"asm": asm})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.url+"/v1/compress", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("compress: %v; stderr:\n%s", err, d.stderr.String())
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress status %d: %s", resp.StatusCode, raw)
	}
	var out compressReply
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func metricNumber(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(name) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %q not found in scrape:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %q: %v", name, err)
	}
	return v
}

// waitDaemonMetric polls a daemon's /metrics until the named metric
// reaches want.
func waitDaemonMetric(t *testing.T, d *daemon, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var got float64
	for time.Now().Before(deadline) {
		if got = metricNumber(t, d.metrics(t), name); got == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s = %v, want %v (timed out); stderr:\n%s", name, got, want, d.stderr.String())
}

// TestDynamicJoinAndLeave is the dynamic-membership acceptance test
// against real processes: a third instance joins a running two-node
// cluster (its seed list names only one member) and serves a
// pre-existing digest warm with zero recompression, then leaves
// gracefully — and a digest only it held stays fetchable because the
// shutdown handoff moved it to the new owner.
func TestDynamicJoinAndLeave(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round trip")
	}

	addrA, urlA := freeURL(t)
	addrB, urlB := freeURL(t)
	addrC, urlC := freeURL(t)
	ring3 := peer.NewRing([]string{urlA, urlB, urlC})

	// A and B know only each other; C is nobody's seed.
	clusterFlags := []string{"-peer-timeout", "500ms", "-peer-heartbeat", "100ms"}
	dA := startDaemon(t, append([]string{"-addr", addrA, "-peer-self", urlA, "-peers", urlB}, clusterFlags...)...)
	dB := startDaemon(t, append([]string{"-addr", addrB, "-peer-self", urlB, "-peers", urlA}, clusterFlags...)...)
	waitDaemonMetric(t, dA, "cpackd_peer_members", 2)

	// Compressed on A before C exists: in the eventual three-member ring
	// this digest belongs to C.
	joinAsm := asmOwnedBy(t, ring3, urlC, 20)
	first := dA.compressAsm(t, joinAsm)
	if first.Cached {
		t.Fatal("first compression reported cached")
	}

	// C joins the running cluster through its single seed A.
	dC := startDaemon(t, append([]string{"-addr", addrC, "-peer-self", urlC, "-peers", urlA}, clusterFlags...)...)
	waitDaemonMetric(t, dC, "cpackd_peer_members", 3)
	waitDaemonMetric(t, dA, "cpackd_peer_members", 3)
	waitDaemonMetric(t, dB, "cpackd_peer_members", 3)

	// The join was a ring change on A, so anti-entropy hands the digest
	// to its new owner C; the joiner then serves it warm.
	deadline := time.Now().Add(15 * time.Second)
	var onC compressReply
	for {
		if onC = dC.compressAsm(t, joinAsm); onC.Cached || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !onC.Cached {
		t.Error("joiner did not serve the rebalanced digest warm (recompressed)")
	}
	if onC.Digest != first.Digest || onC.CompressedB64 != first.CompressedB64 {
		t.Error("joiner served a different payload than the original compression")
	}

	// A digest owned and held only by C: compressed on its owner, it is
	// never replicated anywhere else.
	leaveAsm := asmOwnedBy(t, ring3, urlC, 21)
	leaveFirst := dC.compressAsm(t, leaveAsm)
	if leaveFirst.Cached {
		t.Fatal("first compression of the leave digest reported cached")
	}

	// Graceful departure: SIGTERM drains C, whose shutdown handoff must
	// push its digests to their post-departure owners.
	if err := dC.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- dC.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("graceful leave exited with %v; stderr:\n%s", err, dC.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("leaving instance did not exit after SIGTERM")
	}
	waitDaemonMetric(t, dA, "cpackd_peer_members", 2)
	waitDaemonMetric(t, dB, "cpackd_peer_members", 2)

	// The survivors serve C's digest warm from the handoff.
	ring2 := peer.NewRing([]string{urlA, urlB})
	im, err := codepack.Assemble("request", leaveAsm)
	if err != nil {
		t.Fatal(err)
	}
	owner := dA
	if ring2.Owner(codepack.ImageDigest(im)) == urlB {
		owner = dB
	}
	after := owner.compressAsm(t, leaveAsm)
	if !after.Cached {
		t.Error("digest held only by the departed member was recompressed; leave handoff failed")
	}
	if after.Digest != leaveFirst.Digest || after.CompressedB64 != leaveFirst.CompressedB64 {
		t.Error("survivor served a different payload than the departed member's compression")
	}
}

// asmWithOwners is asmOwnedBy for a replica set: it generates assembly
// variants until one's digest places its first len(want) replicas on
// exactly want, in that order.
func asmWithOwners(t *testing.T, ring *peer.Ring, salt int, want ...string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		asm := strings.Replace(testAsm, "li   $s0, 50",
			fmt.Sprintf("li   $s0, %d", 50+salt*10_000+i), 1)
		im, err := codepack.Assemble("request", asm)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(ring.Owners(codepack.ImageDigest(im), len(want)), want) {
			return asm
		}
	}
	t.Fatalf("no generated program placed its replicas on %v in order", want)
	return ""
}

// TestReplicatedClusterCrashFailover is the R=2 acceptance test against
// real processes: a digest compressed on its primary owner survives that
// owner's SIGKILL because fetches fall through to the surviving replica,
// and after the primary restarts empty a read through it still serves
// warm — the restarted primary answers a clean 404 and the walk moves on
// to the replica.
func TestReplicatedClusterCrashFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round trip")
	}

	addrA, urlA := freeURL(t)
	addrB, urlB := freeURL(t)
	addrC, urlC := freeURL(t)
	addrD, urlD := freeURL(t)
	ring := peer.NewRing([]string{urlA, urlB, urlC, urlD})

	// Membership is frozen (hour-scale heartbeats and timers): the ring
	// never drops the crashed primary, so fetches keep walking the full
	// replica set and no anti-entropy pass rebalances entries behind the
	// test's back. Seeds are registered alive at boot, so the member
	// count is full without a single heartbeat round.
	frozen := []string{"-replicas", "2", "-peer-timeout", "500ms",
		"-peer-heartbeat", "30m", "-peer-suspect-after", "1h", "-peer-dead-after", "2h"}
	boot := func(addr, self string, seeds ...string) *daemon {
		return startDaemon(t, append([]string{"-addr", addr, "-peer-self", self,
			"-peers", strings.Join(seeds, ",")}, frozen...)...)
	}
	dA := boot(addrA, urlA, urlB, urlC, urlD)
	dB := boot(addrB, urlB, urlA, urlC, urlD)
	dC := boot(addrC, urlC, urlA, urlB, urlD)
	dD := boot(addrD, urlD, urlA, urlB, urlC)
	for _, d := range []*daemon{dA, dB, dC, dD} {
		waitDaemonMetric(t, d, "cpackd_peer_members", 4)
	}

	// d1 is compressed on its primary owner A and replicated to B.
	asm1 := asmWithOwners(t, ring, 30, urlA, urlB)
	first := dA.compressAsm(t, asm1)
	if first.Cached {
		t.Fatal("first compression on the primary reported cached")
	}
	waitDaemonMetric(t, dB, "cpackd_cache_entries", 1)

	// SIGKILL the primary owner.
	if err := dA.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	dA.cmd.Wait()

	// Fallthrough: a non-owner's fetch walks [A, B], rides past the dead
	// primary and serves warm from the surviving replica.
	onD := dD.compressAsm(t, asm1)
	if !onD.Cached {
		t.Error("fetch with a dead primary did not serve warm from the replica")
	}
	if onD.Digest != first.Digest || onD.CompressedB64 != first.CompressedB64 {
		t.Error("replica-served payload differs from the primary's compression")
	}
	mD := dD.metrics(t)
	if got := metricNumber(t, mD, "cpackd_peer_replica_fallthroughs_total"); got != 1 {
		t.Errorf("cpackd_peer_replica_fallthroughs_total on D = %v, want 1", got)
	}
	if got := metricNumber(t, mD, "cpackd_peer_hits_total"); got != 1 {
		t.Errorf("cpackd_peer_hits_total on D = %v, want 1", got)
	}
	if got := metricNumber(t, mD, "cpackd_peer_replica_factor"); got != 2 {
		t.Errorf("cpackd_peer_replica_factor on D = %v, want 2", got)
	}

	// The primary restarts empty (no -cache-dir): the crash wiped its
	// copy. Its seed list names only C, and with frozen membership no
	// member sees a ring change, so no anti-entropy pass refills it.
	dA2 := startDaemon(t, append([]string{"-addr", addrA, "-peer-self", urlA,
		"-peers", urlC}, frozen...)...)

	// C misses and walks [A, B]: the restarted primary answers a clean
	// 404, the replica a verified hit, so C serves warm.
	onC := dC.compressAsm(t, asm1)
	if !onC.Cached {
		t.Error("read through the restarted primary did not serve warm from the replica")
	}
	if onC.Digest != first.Digest || onC.CompressedB64 != first.CompressedB64 {
		t.Error("replica-served payload differs from the primary's compression")
	}
	if got := metricNumber(t, dC.metrics(t), "cpackd_peer_replica_fallthroughs_total"); got != 1 {
		t.Errorf("cpackd_peer_replica_fallthroughs_total on C = %v, want 1", got)
	}
	if got := metricNumber(t, dA2.metrics(t), `cpackd_requests_total{endpoint="peer_get",code="404"}`); got != 1 {
		t.Errorf("clean 404s served by the restarted primary = %v, want 1", got)
	}
}

// TestPeerFlagErrors exercises run()'s cluster-flag validation.
func TestPeerFlagErrors(t *testing.T) {
	if err := run([]string{"-peers", "http://127.0.0.1:1"}); err == nil {
		t.Error("-peers without -peer-self accepted")
	}
	if err := run([]string{"-peer-self", "http://127.0.0.1:1"}); err == nil {
		t.Error("-peer-self without -peers accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:0",
		"-peer-self", "http://127.0.0.1:1", "-peers", "not a url"}); err == nil {
		t.Error("malformed peer URL accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-cache", "-1",
		"-peer-self", "http://127.0.0.1:1", "-peers", "http://127.0.0.1:2"}); err == nil {
		t.Error("clustering with a disabled cache accepted")
	}
}

// TestTwoInstanceCluster is the cluster acceptance test: two real
// cpackd processes form a warm tier — a digest compressed on its owner
// is served by the other instance with zero recompression — and
// SIGKILLing one degrades the survivor to local compression with no
// failed requests and an opened breaker.
func TestTwoInstanceCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round trip")
	}

	addrA, urlA := freeURL(t)
	addrB, urlB := freeURL(t)
	ring := peer.NewRing([]string{urlA, urlB})

	dA := startDaemon(t, "-addr", addrA, "-peer-self", urlA, "-peers", urlB,
		"-peer-timeout", "500ms")
	dB := startDaemon(t, "-addr", addrB, "-peer-self", urlB, "-peers", urlA,
		"-peer-timeout", "500ms")

	// Warm tier: compress on the owner, read from the peer.
	warmAsm := asmOwnedBy(t, ring, urlA, 0)
	first := dA.compressAsm(t, warmAsm)
	if first.Cached {
		t.Fatal("first compression on the owner reported cached")
	}
	second := dB.compressAsm(t, warmAsm)
	if !second.Cached {
		t.Error("peer-served compression did not report cached (recompressed?)")
	}
	if second.Digest != first.Digest || second.CompressedB64 != first.CompressedB64 {
		t.Error("peer-served payload differs from the owner's compression")
	}
	mB := dB.metrics(t)
	if got := metricNumber(t, mB, "cpackd_peer_hits_total"); got != 1 {
		t.Errorf("cpackd_peer_hits_total on B = %v, want 1", got)
	}

	// Kill the owner mid-run: the survivor must keep answering every
	// request by compressing locally, and its breaker must open.
	if err := dA.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	dA.cmd.Wait()

	for i := 1; i <= 4; i++ {
		reply := dB.compressAsm(t, asmOwnedBy(t, ring, urlA, i))
		if reply.Cached {
			t.Errorf("request %d reported cached with its owner dead", i)
		}
	}
	mB = dB.metrics(t)
	if got := metricNumber(t, mB, "cpackd_peer_errors_total"); got < 1 {
		t.Errorf("cpackd_peer_errors_total on B = %v, want >= 1", got)
	}
	opens := fmt.Sprintf("cpackd_peer_breaker_opens_total{peer=%q}", urlA)
	if got := metricNumber(t, mB, opens); got < 1 {
		t.Errorf("%s = %v, want >= 1", opens, got)
	}

	// The survivor still drains cleanly.
	if err := dB.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- dB.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown exited with %v; stderr:\n%s", err, dB.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("surviving instance did not exit after SIGTERM")
	}
}
