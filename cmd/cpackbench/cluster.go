package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"codepack/internal/loadgen"
)

// clusterOptions parameterize a multi-process cluster run.
type clusterOptions struct {
	n        int           // member count
	replicas int           // -replicas per digest
	churn    time.Duration // crash/stop one member this often (0 = steady)
}

func (o clusterOptions) label() string {
	l := fmt.Sprintf("cluster(n=%d,r=%d", o.n, o.replicas)
	if o.churn > 0 {
		l += fmt.Sprintf(",churn=%s", o.churn)
	}
	return l + ")"
}

// clusterHarness boots N real cpackd processes as a replicated warm-cache
// cluster, drives them round-robin as a loadgen Executor, sums their
// /metrics as a MetricsSource, and (optionally) churns membership by
// stopping and restarting one member at a time mid-run.
//
// Counter handling across restarts: a member's in-memory counters die
// with it, so before every stop the harness scrapes the victim and folds
// the totals into a retired baseline. ServerStats then reports baseline +
// live sums, which stays monotonic across any number of churn rounds —
// only the few requests between the final scrape and the kill are lost.
type clusterHarness struct {
	opts    clusterOptions
	stderr  io.Writer
	bin     string // built cpackd binary
	binDir  string
	members []*clusterMember

	rr atomic.Uint64 // round-robin cursor

	retiredMu sync.Mutex
	retired   loadgen.ServerStats

	churnStop chan struct{}
	churnDone chan struct{}
	// ChurnRounds counts completed stop+restart cycles.
	ChurnRounds atomic.Uint64
}

type clusterMember struct {
	idx    int
	addr   string // host:port the member listens on
	url    string // advertised base URL
	args   []string
	client *loadgen.HTTPClient

	mu   sync.Mutex
	cmd  *exec.Cmd
	out  *bytes.Buffer // combined stdout+stderr of the current incarnation
	down bool
}

func (m *clusterMember) isDown() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

func (m *clusterMember) setDown(v bool) {
	m.mu.Lock()
	m.down = v
	m.mu.Unlock()
}

// startCluster builds cpackd and boots opts.n members with fast
// membership timings, returning once every member sees the full ring.
func startCluster(ctx context.Context, opts clusterOptions, stderr io.Writer) (*clusterHarness, error) {
	if opts.n < 2 {
		return nil, fmt.Errorf("cluster needs at least 2 members, got %d", opts.n)
	}
	if opts.replicas < 1 {
		opts.replicas = 2
	}
	root, err := moduleRoot(ctx)
	if err != nil {
		return nil, err
	}
	binDir, err := os.MkdirTemp("", "cpackbench-cluster-")
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(binDir, "cpackd")
	fmt.Fprintf(stderr, "cpackbench: building cpackd for the cluster harness\n")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/cpackd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(binDir)
		return nil, fmt.Errorf("go build ./cmd/cpackd: %w\n%s", err, out)
	}

	h := &clusterHarness{opts: opts, stderr: stderr, bin: bin, binDir: binDir}

	// Reserve one loopback port per member up front so every member can
	// be told the full peer list before any of them boots.
	urls := make([]string, opts.n)
	addrs := make([]string, opts.n)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.Close()
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		urls[i] = "http://" + addrs[i]
		ln.Close()
	}
	for i := 0; i < opts.n; i++ {
		var seeds []string
		for j, u := range urls {
			if j != i {
				seeds = append(seeds, u)
			}
		}
		m := &clusterMember{
			idx:    i,
			addr:   addrs[i],
			url:    urls[i],
			client: loadgen.NewHTTPClient(urls[i]),
			args: []string{
				"-addr", addrs[i],
				"-peer-self", urls[i],
				"-peers", strings.Join(seeds, ","),
				"-replicas", strconv.Itoa(opts.replicas),
				"-peer-timeout", "250ms",
				"-peer-heartbeat", "100ms",
				"-peer-suspect-after", "500ms",
				"-peer-dead-after", "5s",
				"-drain-timeout", "2s",
				"-light-workers", "8",
				"-log-level", "warn",
			},
		}
		h.members = append(h.members, m)
		if err := h.startMember(ctx, m); err != nil {
			h.Close()
			return nil, err
		}
	}
	for _, m := range h.members {
		if err := h.waitMembers(ctx, m, opts.n); err != nil {
			h.Close()
			return nil, err
		}
	}
	fmt.Fprintf(stderr, "cpackbench: %s up, all members converged\n", opts.label())
	return h, nil
}

// moduleRoot locates the repo root via the go toolchain, so the harness
// works from any working directory.
func moduleRoot(ctx context.Context) (string, error) {
	out, err := exec.CommandContext(ctx, "go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module (go env GOMOD = %q)", gomod)
	}
	return filepath.Dir(gomod), nil
}

// startMember launches one cpackd process and waits until it serves
// /metrics.
func (h *clusterHarness) startMember(ctx context.Context, m *clusterMember) error {
	cmd := exec.Command(h.bin, m.args...)
	out := &bytes.Buffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start member %d: %w", m.idx, err)
	}
	m.mu.Lock()
	m.cmd = cmd
	m.out = out
	m.mu.Unlock()

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if _, err := m.client.ServerStats(ctx); err == nil {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("member %d (%s) never became ready; output:\n%s", m.idx, m.url, out.String())
}

// waitMembers blocks until the member's ring holds want members.
func (h *clusterHarness) waitMembers(ctx context.Context, m *clusterMember, want int) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if st, err := m.client.ServerStats(ctx); err == nil && int(st.PeerMembers) == want {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("member %d (%s) never saw %d ring members", m.idx, m.url, want)
}

// Do implements loadgen.Executor: round-robin across live members. A
// member mid-restart is skipped, so only requests already in flight when
// a member dies surface as transport errors.
func (h *clusterHarness) Do(ctx context.Context, req loadgen.Request) (int, error) {
	start := int(h.rr.Add(1))
	for i := 0; i < len(h.members); i++ {
		m := h.members[(start+i)%len(h.members)]
		if m.isDown() {
			continue
		}
		return m.client.Do(ctx, req)
	}
	return 0, fmt.Errorf("all %d cluster members are down", len(h.members))
}

// ServerStats implements loadgen.MetricsSource: the retired baseline plus
// every live member's current counters.
func (h *clusterHarness) ServerStats(ctx context.Context) (loadgen.ServerStats, error) {
	h.retiredMu.Lock()
	sum := h.retired
	h.retiredMu.Unlock()
	scraped := 0
	for _, m := range h.members {
		if m.isDown() {
			continue
		}
		st, err := m.client.ServerStats(ctx)
		if err != nil {
			continue // racing a kill; its totals live in the baseline
		}
		addStats(&sum, st)
		scraped++
	}
	if scraped == 0 {
		return loadgen.ServerStats{}, fmt.Errorf("no cluster member was scrapeable")
	}
	return sum, nil
}

func addStats(dst *loadgen.ServerStats, s loadgen.ServerStats) {
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
	dst.Shed += s.Shed
	dst.Coalesced += s.Coalesced
	dst.PeerHits += s.PeerHits
	dst.PeerMisses += s.PeerMisses
}

// StartChurn begins the member churn loop: every interval it retires one
// member — alternating a crash (SIGKILL) with a graceful leave (SIGTERM)
// — waits for it to exit, restarts it, and waits for the rejoin before
// picking the next victim. One member at a time, so an R>=2 cluster
// always keeps a live replica of every digest.
func (h *clusterHarness) StartChurn(interval time.Duration) {
	if interval <= 0 || h.churnStop != nil {
		return
	}
	h.churnStop = make(chan struct{})
	h.churnDone = make(chan struct{})
	go func() {
		defer close(h.churnDone)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for round := 0; ; round++ {
			select {
			case <-h.churnStop:
				return
			case <-tick.C:
			}
			victim := h.members[round%len(h.members)]
			graceful := round%2 == 1
			h.churnMember(victim, graceful)
		}
	}()
}

// churnMember stops and restarts one member, folding its final counters
// into the retired baseline first.
func (h *clusterHarness) churnMember(m *clusterMember, graceful bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if st, err := m.client.ServerStats(ctx); err == nil {
		h.retiredMu.Lock()
		addStats(&h.retired, st)
		h.retiredMu.Unlock()
	}
	m.setDown(true)
	m.mu.Lock()
	cmd := m.cmd
	m.mu.Unlock()
	sig, how := syscall.SIGKILL, "crash"
	if graceful {
		sig, how = syscall.SIGTERM, "leave"
	}
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Signal(sig)
		cmd.Wait()
	}
	fmt.Fprintf(h.stderr, "cpackbench: churn: member %d %s, restarting\n", m.idx, how)
	if err := h.startMember(ctx, m); err != nil {
		fmt.Fprintf(h.stderr, "cpackbench: churn: member %d failed to restart: %v\n", m.idx, err)
		return // stays down; later rounds skip it in Do
	}
	// Only hand traffic back once the member has rejoined the full ring,
	// so its first requests can reach every replica.
	if err := h.waitMembers(ctx, m, len(h.members)); err != nil {
		fmt.Fprintf(h.stderr, "cpackbench: churn: %v\n", err)
	}
	m.setDown(false)
	h.ChurnRounds.Add(1)
}

// StopChurn halts the churn loop, waiting for an in-progress restart to
// finish so the cluster is whole again.
func (h *clusterHarness) StopChurn() {
	if h.churnStop == nil {
		return
	}
	close(h.churnStop)
	<-h.churnDone
	h.churnStop, h.churnDone = nil, nil
}

// Close tears the cluster down.
func (h *clusterHarness) Close() {
	h.StopChurn()
	for _, m := range h.members {
		m.mu.Lock()
		if m.cmd != nil && m.cmd.Process != nil {
			m.cmd.Process.Kill()
			m.cmd.Wait()
		}
		m.mu.Unlock()
	}
	if h.binDir != "" {
		os.RemoveAll(h.binDir)
	}
}

// runCluster boots a cluster, runs the scenario in o against it
// (churning membership mid-run when opts.churn > 0), and tears it down.
func runCluster(ctx context.Context, opts clusterOptions, o loadgen.Options, stderr io.Writer) (*loadgen.Report, error) {
	h, err := startCluster(ctx, opts, stderr)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	defer h.Close()

	fmt.Fprintf(stderr, "cpackbench: running %s against %s (%.0f req/s for %v + %v warmup)\n",
		o.Scenario.Name(), opts.label(), o.QPS, o.Duration, o.Warmup)
	h.StartChurn(opts.churn)
	o.Executor = h
	o.Metrics = h
	o.Target = opts.label()
	rep, err := loadgen.Run(ctx, o)
	h.StopChurn()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", o.Scenario.Name(), err)
	}
	if opts.churn > 0 {
		fmt.Fprintf(stderr, "cpackbench: churn: %d stop/restart rounds completed\n", h.ChurnRounds.Load())
	}
	return rep, nil
}
