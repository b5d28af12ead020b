package server

// The cluster simulator runs whole cpackd clusters in virtual time
// against the warm tier's promises. Every node runs the shipping code:
// peer.Membership on the world's virtual clock, peer.Ring over its live
// view, and a compCache over its own entry-file directory, so every
// serve, put, quarantine, restore and verification is the server's own
// (trusted, Accept, Payload, Missing, put, compMatchesImage). The
// transport is in memory, with injectable faults: probabilistic drop,
// delay and duplication of every message, named partitions, crashes
// (the cache is dropped; only its entry files survive), restarts (which
// reopen those files) and impostor payloads — another program's
// well-formed payload pushed through the shipping Accept.
//
// Everything runs on one goroutine inside a virtual-time event loop
// seeded from a single PRNG: the same seed always yields the same
// interleaving, so a failing schedule is a repro, not a flake. Map
// iterations that feed the PRNG or the event queue are sorted first for
// the same reason.
//
// The simulator checks the properties the live cluster promises:
//
//   - after any fault schedule, once the network heals the ring
//     converges — every running node computes the same member list;
//   - every digest a client ever compressed still has a live owner and
//     is served warm post-convergence (zero recompressions);
//   - no unverified or wrong payload is ever served to a client, no
//     matter what impostors pushed.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"codepack"
	"codepack/internal/peer"
	"codepack/internal/workload"
)

// Transport timing. Membership runs on its own defaults (heartbeat,
// suspect and dead windows) and the ring on peer.DefaultReplicas vnodes.
const (
	simRPCTimeout = peer.DefaultHeartbeatInterval // an unanswered round trip fails
	simMinDelay   = 5 * time.Millisecond          // bounds of one message hop
	simMaxDelay   = 10 * simMinDelay
)

// simConfig is what a schedule sets.
type simConfig struct {
	// Nodes are the member URLs. Seeds maps a node to its seed list;
	// nodes absent from Seeds default to "every other node".
	Nodes []string
	Seeds map[string][]string

	// ReplicationFactor is how many members hold each digest (R; 0 = 1).
	ReplicationFactor int

	// DropProb drops a message hop (request and response roll
	// independently); DupProb delivers a request twice.
	DropProb float64
	DupProb  float64
}

// simStats are the world's lifetime fault and invariant counters.
type simStats struct {
	Messages         int // round trips attempted
	Dropped          int // message hops lost to DropProb or a partition
	Duplicated       int // requests delivered twice
	RingChanges      int // ring rebuilds across all nodes
	Recompressions   int // client requests that paid a local compression
	UnverifiedServed int // INVARIANT: must stay 0
	WrongServed      int // INVARIANT: must stay 0
}

// simEvent is one scheduled callback; the heap orders by virtual time,
// then insertion sequence, so ties resolve deterministically.
type simEvent struct {
	at  int64
	seq int64
	fn  func()
}

type eventHeap []*simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*simEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// simProgram is one client program: a tiny corpus program, assembled,
// with its real digest.
type simProgram struct {
	label  string
	im     *codepack.Image
	digest string
}

// World is one simulated cluster: the nodes, the programs, the virtual
// clock, the event queue and the fault state.
type World struct {
	t     testing.TB
	cfg   simConfig
	rng   *rand.Rand
	now   int64 // virtual nanoseconds
	seq   int64
	queue eventHeap
	nodes map[string]*simNode
	order []string // node URLs, sorted: the deterministic iteration order

	groups    map[string]int // partition groups; nil = fully connected
	committed map[string]bool

	progs    map[string]*simProgram // by digest
	labels   map[string]string      // label -> digest
	impostor []byte                 // a well-formed payload of no client program

	stats  simStats
	events []string
}

// newWorld builds a world with every node stopped, each with its own
// cache directory; call Boot (or Restart individual nodes) to start
// them.
func newWorld(t testing.TB, seed int64, cfg simConfig) *World {
	impostor, err := codepack.Assemble("impostor", workload.CorpusSource(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	comp, err := codepack.Compress(impostor)
	if err != nil {
		t.Fatal(err)
	}
	w := &World{
		t:         t,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(seed)),
		nodes:     make(map[string]*simNode),
		committed: make(map[string]bool),
		progs:     make(map[string]*simProgram),
		labels:    make(map[string]string),
		impostor:  comp.Marshal(),
	}
	for _, url := range cfg.Nodes {
		seeds := cfg.Seeds[url]
		if seeds == nil {
			for _, other := range cfg.Nodes {
				if other != url {
					seeds = append(seeds, other)
				}
			}
		}
		w.nodes[url] = &simNode{w: w, url: url, seeds: seeds, dir: t.TempDir()}
		w.order = append(w.order, url)
	}
	sort.Strings(w.order)
	return w
}

// digest returns the digest of the program named label, assembling it
// on first use: labels map to distinct corpus programs in order of
// first use.
func (w *World) digest(label string) string {
	if d, ok := w.labels[label]; ok {
		return d
	}
	im, err := codepack.Assemble(label, workload.CorpusSource(1, len(w.labels)))
	if err != nil {
		w.t.Fatal(err)
	}
	p := &simProgram{label: label, im: im, digest: codepack.ImageDigest(im)}
	w.labels[label] = p.digest
	w.progs[p.digest] = p
	return p.digest
}

// digests returns the digests of the n programs labelled tag-000 on.
func (w *World) digests(tag string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = w.digest(fmt.Sprintf("%s-%03d", tag, i))
	}
	return out
}

// logf appends one line to the event log, stamped with virtual time.
// Everything that feeds a line is derived from the seed, so two runs of
// the same schedule produce byte-identical logs — the determinism guard
// in sim-smoke diffs them.
func (w *World) logf(format string, args ...any) {
	w.events = append(w.events, fmt.Sprintf("%09dus ", w.now/1e3)+fmt.Sprintf(format, args...))
}

// EventLog returns the full event log, one line per event.
func (w *World) EventLog() string { return strings.Join(w.events, "\n") }

// clock is the injectable Now for peer.Membership.
func (w *World) clock() time.Time { return time.Unix(0, w.now) }

// schedule queues fn to run after d of virtual time.
func (w *World) schedule(d time.Duration, fn func()) {
	w.seq++
	heap.Push(&w.queue, &simEvent{at: w.now + int64(d), seq: w.seq, fn: fn})
}

// step runs the next event.
func (w *World) step() {
	ev := heap.Pop(&w.queue).(*simEvent)
	w.now = ev.at
	ev.fn()
}

// Run advances virtual time by d, executing every event that falls due.
func (w *World) Run(d time.Duration) {
	end := w.now + int64(d)
	for len(w.queue) > 0 && w.queue[0].at <= end {
		w.step()
	}
	w.now = end
}

// Boot starts every node.
func (w *World) Boot() {
	for _, url := range w.order {
		w.nodes[url].start()
	}
}

// Crash stops a node hard: its cache, membership, timers and in-flight
// requests are gone. Its entry files survive for a later Restart.
func (w *World) Crash(url string) {
	w.logf("crash %s", url)
	w.nodes[url].crash()
}

// Restart boots a crashed node: fresh membership at generation 1 (its
// tombstone, if any, is refuted by incarnation on first contact), cache
// restored from its entry files.
func (w *World) Restart(url string) {
	w.logf("restart %s", url)
	w.nodes[url].start()
}

// Partition splits the network into the given groups; nodes in
// different groups cannot exchange messages. Unlisted nodes form an
// implicit extra group each.
func (w *World) Partition(groups ...[]string) {
	w.logf("partition %v", groups)
	w.groups = make(map[string]int)
	for i, g := range groups {
		for _, url := range g {
			w.groups[url] = i
		}
	}
	next := len(groups)
	for _, url := range w.order {
		if _, ok := w.groups[url]; !ok {
			w.groups[url] = next
			next++
		}
	}
}

// Heal removes every partition.
func (w *World) Heal() {
	if w.groups != nil {
		w.logf("heal")
	}
	w.groups = nil
}

func (w *World) blocked(a, b string) bool {
	return w.groups != nil && w.groups[a] != w.groups[b]
}

// delay draws one message hop's latency.
func (w *World) delay() time.Duration {
	return simMinDelay + time.Duration(w.rng.Int63n(int64(simMaxDelay-simMinDelay)+1))
}

// rpc is one faulty round trip: the request may be dropped, delayed or
// duplicated on the way in, the response dropped or delayed on the way
// out; done fires exactly once, with ok=false at simRPCTimeout if no
// response made it back. Duplicate deliveries re-run the handler (its
// side effects must be idempotent — that is the point) but answer once.
func (w *World) rpc(from, to string, handler func(*simNode) any, done func(resp any, ok bool)) {
	w.stats.Messages++
	responded := false
	w.schedule(simRPCTimeout, func() {
		if !responded {
			responded = true
			done(nil, false)
		}
	})
	deliveries := 1
	if w.rng.Float64() < w.cfg.DupProb {
		deliveries = 2
		w.stats.Duplicated++
	}
	for i := 0; i < deliveries; i++ {
		if w.blocked(from, to) || w.rng.Float64() < w.cfg.DropProb {
			w.stats.Dropped++
			continue
		}
		w.schedule(w.delay(), func() {
			tn := w.nodes[to]
			if !tn.up {
				return
			}
			resp := handler(tn)
			if w.blocked(to, from) || w.rng.Float64() < w.cfg.DropProb {
				w.stats.Dropped++
				return
			}
			w.schedule(w.delay(), func() {
				if !responded {
					responded = true
					done(resp, true)
				}
			})
		})
	}
}

// Compress is a client POST /v1/compress for digest at url. It advances
// the world until the node answers (or crashes), so the request's steps
// interleave with whatever else falls due meanwhile.
func (w *World) Compress(url, digest string) {
	n := w.nodes[url]
	if !n.up {
		return // connection refused
	}
	finished := false
	n.compress(w.progs[digest], func() { finished = true })
	for !finished {
		w.step()
	}
}

// InjectCorrupt is an impostor PUT: another program's well-formed
// payload pushed under digest straight at a node's replication
// endpoint. The shipping Accept quarantines it unless the node already
// holds the digest.
func (w *World) InjectCorrupt(url, digest string) {
	if n := w.nodes[url]; n.up {
		n.accept(digest, w.impostor)
	}
}

// Live returns a running node's current ring view.
func (w *World) Live(url string) []string { return w.nodes[url].mem.Live() }

// Stats returns the world's counters.
func (w *World) Stats() simStats { return w.stats }

// NodeStats returns one node's lifetime event counters.
func (w *World) NodeStats(url string) nodeStats { return w.nodes[url].stats }

// Committed returns every digest a client was ever answered for, sorted.
func (w *World) Committed() []string {
	out := make([]string, 0, len(w.committed))
	for d := range w.committed {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// upNodes returns the running nodes' URLs, sorted.
func (w *World) upNodes() []string {
	var out []string
	for _, url := range w.order {
		if w.nodes[url].up {
			out = append(out, url)
		}
	}
	return out
}

// Converged reports whether every running node's ring view equals
// exactly the set of running nodes.
func (w *World) Converged() bool {
	want := w.upNodes()
	for _, url := range want {
		if strings.Join(w.nodes[url].mem.Live(), " ") != strings.Join(want, " ") {
			return false
		}
	}
	return len(want) > 0
}

// Settle heals the network, turns faults off, and runs heartbeat rounds
// until the ring converges (or maxRounds elapse). Once converged it
// runs one final anti-entropy pass on every node — the steady-state
// equivalent of each node's next ring-change or restart pass — and
// drains it, so every committed digest reaches its final owner.
func (w *World) Settle(maxRounds int) error {
	w.Heal()
	w.cfg.DropProb, w.cfg.DupProb = 0, 0
	for i := 0; i < maxRounds; i++ {
		w.Run(peer.DefaultHeartbeatInterval)
		if w.Converged() {
			for _, url := range w.upNodes() {
				w.nodes[url].runAE()
			}
			w.Run(4 * simRPCTimeout)
			if !w.Converged() {
				continue
			}
			return nil
		}
	}
	views := make(map[string][]string)
	for _, url := range w.upNodes() {
		views[url] = w.nodes[url].mem.Live()
	}
	return fmt.Errorf("sim: no convergence after %d rounds: views %v", maxRounds, views)
}

// CheckWarm asserts the post-convergence warm-serve property: every
// committed digest, requested at every running node, is served without
// a recompression — from the local cache or a ring owner. It returns
// the number of recompressions those requests paid (the caller asserts
// 0) and any invariant violation.
func (w *World) CheckWarm() (recompressions int, err error) {
	before := w.stats.Recompressions
	for _, digest := range w.Committed() {
		owners := ""
		for _, url := range w.upNodes() {
			if o := strings.Join(w.nodes[url].ring.Owners(digest, w.cfg.ReplicationFactor), " "); owners == "" {
				owners = o
			} else if o != owners {
				return 0, fmt.Errorf("sim: ring disagreement for %s: [%s] vs [%s]", w.progs[digest].label, owners, o)
			}
		}
		for _, url := range w.upNodes() {
			w.Compress(url, digest)
		}
	}
	if w.stats.UnverifiedServed > 0 {
		return 0, fmt.Errorf("sim: %d unverified payloads served", w.stats.UnverifiedServed)
	}
	if w.stats.WrongServed > 0 {
		return 0, fmt.Errorf("sim: %d wrong payloads served", w.stats.WrongServed)
	}
	return w.stats.Recompressions - before, nil
}

// CheckReplication asserts the post-convergence placement property:
// every committed digest is held — quarantined or verified — by every
// running member of its replica set, so the cluster tolerates the loss
// of any R-1 of them without a recompression.
func (w *World) CheckReplication() error {
	up := w.upNodes()
	if len(up) == 0 {
		return fmt.Errorf("sim: no running nodes")
	}
	ring := w.nodes[up[0]].ring
	for _, d := range w.Committed() {
		for _, o := range ring.Owners(d, w.cfg.ReplicationFactor) {
			if n := w.nodes[o]; n.up && !n.holds(d) {
				return fmt.Errorf("sim: replica %s missing committed digest %s", o, w.progs[d].label)
			}
		}
	}
	return nil
}
