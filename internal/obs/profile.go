package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ProfilerConfig parameterizes the triggered profiler.
type ProfilerConfig struct {
	// Dir is the on-disk profile ring directory (required; created if
	// missing).
	Dir string
	// MaxCaptures bounds the ring: older capture sets are evicted once
	// more than this many exist (0 = 8).
	MaxCaptures int
	// CPUDuration is how long each CPU profile runs (0 = 2s).
	CPUDuration time.Duration
	// Cooldown debounces triggers: a trigger landing within Cooldown of
	// the previous capture's start is dropped (0 = 1m).
	Cooldown time.Duration
	// Logger receives capture/evict events (nil = slog.Default()).
	Logger *slog.Logger
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c ProfilerConfig) withDefaults() ProfilerConfig {
	if c.MaxCaptures <= 0 {
		c.MaxCaptures = 8
	}
	if c.CPUDuration <= 0 {
		c.CPUDuration = 2 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Capture describes one capture set in the ring.
type Capture struct {
	Seq    uint64    `json:"seq"`
	Reason string    `json:"reason"`
	Start  time.Time `json:"start"`
	Files  []string  `json:"files"`
}

// Profiler snapshots CPU/heap/goroutine profiles into a bounded
// on-disk ring when triggered — by an SLO burn alert or a slow trace —
// so the evidence for a regression exists before anyone attaches a
// debugger. Triggers never block the caller: they post to a 1-deep
// channel drained by a single capture goroutine, and triggers landing
// during a capture or inside the cooldown are counted and dropped.
type Profiler struct {
	cfg ProfilerConfig

	trigger  chan string
	stopCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	triggered atomic.Uint64
	captured  atomic.Uint64
	dropped   atomic.Uint64
	evicted   atomic.Uint64

	mu       sync.Mutex
	seq      uint64
	lastCap  time.Time
	captures []Capture // oldest first
}

// NewProfiler builds the profiler and starts its capture goroutine.
// Existing capture files in Dir are adopted into the ring so restarts
// keep evicting oldest-first.
func NewProfiler(cfg ProfilerConfig) (*Profiler, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: profiler needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: profile dir: %w", err)
	}
	p := &Profiler{
		cfg:     cfg,
		trigger: make(chan string, 1),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	p.adoptExisting()
	go p.loop()
	return p, nil
}

// adoptExisting rebuilds the capture list from files already on disk,
// grouped by their "<unixnano>-<seq>-<reason>." prefix.
func (p *Profiler) adoptExisting() {
	entries, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return
	}
	groups := map[string]*Capture{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".pprof") {
			continue
		}
		parts := strings.SplitN(name, "-", 3)
		if len(parts) != 3 {
			continue
		}
		var ns int64
		var seq uint64
		if _, err := fmt.Sscanf(parts[0], "%d", &ns); err != nil {
			continue
		}
		fmt.Sscanf(parts[1], "%d", &seq)
		key := parts[0] + "-" + parts[1]
		g := groups[key]
		if g == nil {
			reason := parts[2]
			if i := strings.Index(reason, "."); i >= 0 {
				reason = reason[:i]
			}
			g = &Capture{Seq: seq, Reason: reason, Start: time.Unix(0, ns)}
			groups[key] = g
		}
		g.Files = append(g.Files, name)
	}
	for _, g := range groups {
		sort.Strings(g.Files)
		p.captures = append(p.captures, *g)
		if g.Seq >= p.seq {
			p.seq = g.Seq + 1
		}
	}
	sort.Slice(p.captures, func(i, j int) bool { return p.captures[i].Start.Before(p.captures[j].Start) })
	p.evictLocked()
}

// Trigger requests a capture. It never blocks: when a capture is
// already queued or running the trigger is dropped (and counted).
func (p *Profiler) Trigger(reason string) {
	if p == nil {
		return
	}
	p.triggered.Add(1)
	select {
	case p.trigger <- reason:
	default:
		p.dropped.Add(1)
	}
}

func (p *Profiler) loop() {
	defer close(p.done)
	for {
		select {
		case <-p.stopCh:
			return
		case reason := <-p.trigger:
			p.mu.Lock()
			inCooldown := !p.lastCap.IsZero() && p.cfg.Now().Sub(p.lastCap) < p.cfg.Cooldown
			p.mu.Unlock()
			if inCooldown {
				p.dropped.Add(1)
				continue
			}
			p.capture(reason)
		}
	}
}

// sanitizeReason bounds what a trigger reason can put in a filename.
func sanitizeReason(s string) string {
	var b strings.Builder
	for i := 0; i < len(s) && b.Len() < 32; i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' {
			b.WriteByte(c)
		} else if c >= 'A' && c <= 'Z' {
			b.WriteByte(c + 'a' - 'A')
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "manual"
	}
	return b.String()
}

// capture writes one CPU + heap + goroutine profile set and evicts the
// oldest sets past MaxCaptures.
func (p *Profiler) capture(reason string) {
	start := p.cfg.Now()
	p.mu.Lock()
	seq := p.seq
	p.seq++
	p.lastCap = start
	p.mu.Unlock()

	reason = sanitizeReason(reason)
	prefix := fmt.Sprintf("%d-%d-%s", start.UnixNano(), seq, reason)
	set := Capture{Seq: seq, Reason: reason, Start: start}

	// CPU first: StartCPUProfile fails if another CPU profile is active
	// (e.g. someone is on /debug/pprof/profile); keep the heap and
	// goroutine snapshots regardless.
	cpuName := prefix + ".cpu.pprof"
	if f, err := os.Create(filepath.Join(p.cfg.Dir, cpuName)); err == nil {
		if err := pprof.StartCPUProfile(f); err != nil {
			p.cfg.Logger.Warn("profile capture: cpu profile unavailable", "err", err)
			f.Close()
			os.Remove(filepath.Join(p.cfg.Dir, cpuName))
		} else {
			timer := time.NewTimer(p.cfg.CPUDuration)
			select {
			case <-timer.C:
			case <-p.stopCh:
				timer.Stop()
			}
			pprof.StopCPUProfile()
			f.Close()
			set.Files = append(set.Files, cpuName)
		}
	}
	for _, kind := range []string{"heap", "goroutine"} {
		name := prefix + "." + kind + ".pprof"
		f, err := os.Create(filepath.Join(p.cfg.Dir, name))
		if err != nil {
			continue
		}
		if prof := pprof.Lookup(kind); prof != nil {
			if err := prof.WriteTo(f, 0); err == nil {
				set.Files = append(set.Files, name)
			}
		}
		f.Close()
	}

	p.mu.Lock()
	p.captures = append(p.captures, set)
	p.evictLocked()
	p.mu.Unlock()
	p.captured.Add(1)
	p.cfg.Logger.Info("profile capture", "reason", reason, "seq", seq, "files", len(set.Files))
}

// evictLocked removes the oldest capture sets beyond MaxCaptures.
// Caller holds mu.
func (p *Profiler) evictLocked() {
	for len(p.captures) > p.cfg.MaxCaptures {
		victim := p.captures[0]
		p.captures = p.captures[1:]
		for _, f := range victim.Files {
			os.Remove(filepath.Join(p.cfg.Dir, f))
		}
		p.evicted.Add(1)
	}
}

// Close stops the capture goroutine, interrupting any in-flight CPU
// profile.
func (p *Profiler) Close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.stopCh) })
	<-p.done
}

// ProfilerStats is the profiler's counter snapshot for /metrics and the
// node health summary behind /debug/cluster.
type ProfilerStats struct {
	Triggered uint64 `json:"triggered"`
	Captured  uint64 `json:"captured"`
	Dropped   uint64 `json:"dropped"`
	Evicted   uint64 `json:"evicted"`
	Retained  int    `json:"retained"`
}

// Stats snapshots the trigger/capture counters.
func (p *Profiler) Stats() ProfilerStats {
	if p == nil {
		return ProfilerStats{}
	}
	p.mu.Lock()
	retained := len(p.captures)
	p.mu.Unlock()
	return ProfilerStats{
		Triggered: p.triggered.Load(),
		Captured:  p.captured.Load(),
		Dropped:   p.dropped.Load(),
		Evicted:   p.evicted.Load(),
		Retained:  retained,
	}
}

// Captures lists the ring's capture sets, oldest first.
func (p *Profiler) Captures() []Capture {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Capture, len(p.captures))
	copy(out, p.captures)
	return out
}

// Handler serves the profile ring on the private debug listener:
// "GET <prefix>/" lists captures as JSON, "GET <prefix>/<file>" streams
// a profile. File names are validated against the ring, so the handler
// cannot be steered outside Dir.
func (p *Profiler) Handler(prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, prefix)
		rest = strings.TrimPrefix(rest, "/")
		if rest == "" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(struct {
				Stats    ProfilerStats `json:"stats"`
				Captures []Capture     `json:"captures"`
			}{p.Stats(), p.Captures()})
			return
		}
		if !p.owns(rest) {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		http.ServeFile(w, r, filepath.Join(p.cfg.Dir, rest))
	})
}

// owns reports whether name is a file currently tracked by the ring.
func (p *Profiler) owns(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.captures {
		for _, f := range c.Files {
			if f == name {
				return true
			}
		}
	}
	return false
}
