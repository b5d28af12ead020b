package trace

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultCapacity is the trace ring buffer's default size.
const DefaultCapacity = 256

// SpanData is one completed span as it appears in a serialized trace.
type SpanData struct {
	ID         string         `json:"id"`
	Parent     string         `json:"parent,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`

	seq int // start order within the trace; spans are sorted by it
}

// Trace is one completed request (or background task): its ID, the
// endpoint it entered through, the remote parent span (when the request
// arrived on a peer hop) and every completed span, in start order. The
// root span is always Spans[0].
type Trace struct {
	TraceID      string     `json:"trace_id"`
	Endpoint     string     `json:"endpoint"`
	RemoteParent string     `json:"remote_parent,omitempty"`
	Start        time.Time  `json:"start"`
	DurationMS   float64    `json:"duration_ms"`
	Spans        []SpanData `json:"spans"`
}

// Tree renders the trace's span hierarchy as an indented multi-line
// string — the shape logged for slow requests.
func (tr Trace) Tree() string {
	children := make(map[string][]SpanData)
	ids := make(map[string]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		ids[s.ID] = true
	}
	var roots []SpanData
	for _, s := range tr.Spans {
		if s.Parent != "" && ids[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	var walk func(s SpanData, depth int)
	walk = func(s SpanData, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s %.2fms", s.Name, s.DurationMS)
		if len(s.Attrs) > 0 {
			keys := make([]string, 0, len(s.Attrs))
			for k := range s.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%v", k, s.Attrs[k])
			}
		}
		b.WriteByte('\n')
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return strings.TrimRight(b.String(), "\n")
}

// TracerConfig parameterizes a Tracer; the zero value works.
type TracerConfig struct {
	// Capacity bounds the completed-trace ring buffer
	// (0 = DefaultCapacity).
	Capacity int
	// OnSpanEnd, when non-nil, observes every completed span (stage
	// histograms hook in here); traceID identifies the trace the span
	// belongs to, so histogram buckets can carry exemplars. Called
	// outside the tracer's lock; must be safe for concurrent use.
	OnSpanEnd func(name string, d time.Duration, traceID string)
	// OnTraceDone, when non-nil, observes every completed trace (slow
	// logging hooks in here). Called outside the tracer's lock.
	OnTraceDone func(Trace)
}

// Tracer collects completed traces into a bounded in-memory ring
// buffer, newest overwriting oldest. It is safe for concurrent use; a
// nil *Tracer is a valid no-op tracer.
type Tracer struct {
	capacity    int
	onSpanEnd   func(string, time.Duration, string)
	onTraceDone func(Trace)

	mu    sync.Mutex
	ring  []Trace
	total uint64 // traces ever recorded; the write cursor is total % capacity
}

// NewTracer builds a Tracer with the given config.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Tracer{
		capacity:    cfg.Capacity,
		onSpanEnd:   cfg.OnSpanEnd,
		onTraceDone: cfg.OnTraceDone,
	}
}

// StartTrace begins a new trace: a root span named rootName under
// endpoint, parented (for cross-node stitching) on remoteParent when
// the request arrived on a peer hop. The returned context carries the
// root span; ending the root completes the trace. On a nil tracer both
// returns are pass-throughs (ctx, nil).
func (t *Tracer) StartTrace(ctx context.Context, traceID, remoteParent, endpoint, rootName string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	at := &activeTrace{tracer: t, id: traceID, endpoint: endpoint, remote: remoteParent, start: time.Now()}
	root := at.newSpan(rootName, remoteParent, attrs)
	at.root = root
	return ContextWithSpan(ctx, root), root
}

// record pushes a completed trace into the ring.
func (t *Tracer) record(tr Trace) {
	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.total%uint64(t.capacity)] = tr
	}
	t.total++
	t.mu.Unlock()
	if t.onTraceDone != nil {
		t.onTraceDone(tr)
	}
}

// Total returns the number of traces ever recorded (evicted ones
// included).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Evicted returns how many recorded traces have been overwritten by
// newer ones — the ring's loss counter, surfaced on /metrics as
// cpackd_traces_evicted_total so an undersized -trace-ring is visible.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.ring))
}

// Capacity returns the ring's configured size.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.capacity
}

// Recent returns completed traces newest-first, keeping only those at
// least minDur long and (when endpoint != "") entered through endpoint.
// limit <= 0 means no limit beyond the ring capacity.
func (t *Tracer) Recent(minDur time.Duration, endpoint string, limit int) []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.ring))
	minMS := float64(minDur) / float64(time.Millisecond)
	for i := 0; i < len(t.ring); i++ {
		idx := (t.total - 1 - uint64(i)) % uint64(t.capacity)
		tr := t.ring[idx]
		if tr.DurationMS < minMS {
			continue
		}
		if endpoint != "" && tr.Endpoint != endpoint {
			continue
		}
		out = append(out, tr)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// activeTrace accumulates a trace's completed spans until its root span
// ends.
type activeTrace struct {
	tracer   *Tracer
	id       string
	endpoint string
	remote   string
	start    time.Time
	root     *Span

	mu    sync.Mutex
	seq   int
	spans []SpanData
	done  bool
}

func (at *activeTrace) newSpan(name, parent string, attrs []Attr) *Span {
	at.mu.Lock()
	at.seq++
	seq := at.seq
	at.mu.Unlock()
	return &Span{at: at, seq: seq, id: newSpanID(), parent: parent, name: name, start: time.Now(), attrs: attrs}
}

// finish records one ended span; ending the root finalizes the trace.
func (at *activeTrace) finish(s *Span, dur time.Duration, attrs []Attr) {
	if hook := at.tracer.onSpanEnd; hook != nil {
		hook(s.name, dur, at.id)
	}
	data := SpanData{
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(dur) / float64(time.Millisecond),
		seq:        s.seq,
	}
	if len(attrs) > 0 {
		data.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			data.Attrs[a.Key] = a.Value
		}
	}
	at.mu.Lock()
	if at.done {
		// A straggler ending after the root: the trace is already
		// sealed; the span still fed the stage histogram above.
		at.mu.Unlock()
		return
	}
	at.spans = append(at.spans, data)
	if s != at.root {
		at.mu.Unlock()
		return
	}
	at.done = true
	spans := at.spans
	at.mu.Unlock()

	sort.Slice(spans, func(i, j int) bool { return spans[i].seq < spans[j].seq })
	at.tracer.record(Trace{
		TraceID:      at.id,
		Endpoint:     at.endpoint,
		RemoteParent: at.remote,
		Start:        at.start,
		DurationMS:   float64(dur) / float64(time.Millisecond),
		Spans:        spans,
	})
}
