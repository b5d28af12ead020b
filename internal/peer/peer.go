// Package peer turns independent cpackd instances into a cooperative
// compression cache cluster — a shared warm tier over the service's
// content-addressed cache.
//
// Members agree on one owner per content digest through a
// consistent-hash Ring over the live membership. Membership is dynamic:
// the configured peer list is only a seed list. Instances announce
// themselves to a seed on startup (join), then keep exchanging
// heartbeats that gossip the full member view — each member carries a
// generation (incarnation) number so verdicts about it are totally
// ordered and a rejoining member supersedes its own tombstone. A member
// that goes silent is suspected after SuspectAfter (it keeps its ring
// arcs — probably a blip, and the circuit breaker already shields
// callers), declared dead after DeadAfter (its arcs redistribute), and
// rediscovered by reconnection probes if it ever comes back. On any
// ring change the Cluster re-runs the anti-entropy offer/want pass so
// entries whose owner moved flow to the new owner.
//
// On a local cache miss an instance first asks the digest's owner over
// HTTP (GET /internal/v1/cache/{digest}) before paying for a
// compression; when it does compress something new, it replicates the
// entry to the owner asynchronously, off the request path — the owner
// is resolved when the push is sent, so queued replications drain to
// the owners of the ring as it is then.
//
// Failure handling is local and bounded: per-attempt timeouts, a small
// number of retries with jittered backoff, and a per-peer circuit
// breaker that opens after consecutive failures (requests then skip the
// peer entirely and fall back to local compression) and probes the peer
// back to health after a cooldown. A breaker opening also feeds the
// failure detector: the peer is marked suspect immediately rather than
// waiting out the full silence window.
//
// Trust: the transport checks an end-to-end SHA-256 of every payload
// (the same per-record sum the durable store uses), and the caller in
// internal/server decompresses each peer-served payload and compares it
// word-for-word against the program it is about to answer for — so a
// misbehaving, rejoining or impostor peer can waste work but can never
// poison a cache.
package peer

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"codepack/internal/trace"
)

// Defaults for Config zero values.
const (
	DefaultFetchTimeout       = 2 * time.Second
	DefaultRetries            = 1
	DefaultBackoffBase        = 25 * time.Millisecond
	DefaultBreakerThreshold   = 3
	DefaultBreakerCooldown    = 5 * time.Second
	DefaultReplicationQueue   = 256
	DefaultReplicationWorkers = 2
	DefaultOfferBatch         = 256
)

// maxPayloadBytes caps a peer-served payload read; it matches the
// durable store's per-record sanity cap.
const maxPayloadBytes = 64 << 20

// Config parameterizes a Cluster. Self and Peers are required; zero
// values elsewhere pick the defaults above.
type Config struct {
	// Self is this instance's advertised base URL (scheme://host:port),
	// the identity under which it appears in the ring.
	Self string
	// Peers seeds the membership: the other members' base URLs this
	// instance announces itself to on startup. Unlike a static
	// topology, the lists need not match across instances — membership
	// gossip converges the fleet onto the union of whoever actually
	// joined. It may also include Self.
	Peers []string

	// Replicas is the virtual-node count per member (0 = DefaultReplicas).
	Replicas int

	// ReplicationFactor is how many distinct members own each digest
	// (successor-list placement on the ring). 0 or 1 keeps the classic
	// single-owner behaviour; higher values replicate writes to every
	// owner and let fetches fall through to the next replica when one is
	// unreachable or serves a payload that fails verification. A factor
	// above the live member count degrades gracefully to all members.
	ReplicationFactor int

	// FetchTimeout bounds one fetch, replication or membership attempt.
	FetchTimeout time.Duration
	// Retries is the number of extra attempts after the first for an
	// owner fetch (negative = none).
	Retries int
	// BackoffBase is the first retry's backoff; it doubles per attempt
	// with up to 50% added jitter.
	BackoffBase time.Duration

	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker; BreakerCooldown how long it stays open
	// before a probe.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// ReplicationQueue and ReplicationWorkers size the async
	// write-replication stage; a full queue drops (replication is
	// best-effort — anti-entropy repairs the gaps).
	ReplicationQueue   int
	ReplicationWorkers int

	// OfferBatch caps the digests per anti-entropy offer request.
	OfferBatch int

	// HeartbeatInterval paces the gossip rounds
	// (0 = DefaultHeartbeatInterval).
	HeartbeatInterval time.Duration
	// SuspectAfter is how long a member may go unheard before it is
	// suspected; DeadAfter before a suspect is declared dead and leaves
	// the ring; ReapAfter before a dead/left tombstone is forgotten.
	// Zero values pick the membership defaults.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	ReapAfter    time.Duration
	// GossipFanout is how many live peers each heartbeat round
	// exchanges views with (0 = DefaultGossipFanout).
	GossipFanout int

	// OnRingChange, when non-nil, runs after every ring rebuild with
	// the new ring epoch and member list. It is called from membership
	// goroutines and HTTP handlers and must not block.
	OnRingChange func(epoch uint64, members []string)

	// AuthKey, when non-nil, returns the cluster signing key for
	// outbound node-to-node requests (nil or empty result = unsigned,
	// the open trusted-network mode). It is a func, not a value, so a
	// hot config reload rotates the key without rebuilding the cluster;
	// it is called once per outbound request and must be cheap.
	AuthKey func() []byte

	// Logger receives peer-traffic warnings (nil = slog.Default()).
	Logger *slog.Logger
	// Transport overrides the HTTP transport (tests).
	Transport http.RoundTripper

	// Tracer, when non-nil, records spans for peer traffic: request-path
	// fetches join the caller's trace via context, and background work
	// (replication pushes) opens its own trace here, stitched to the
	// originating request by trace ID and parent span.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 1
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = DefaultFetchTimeout
	}
	if c.Retries == 0 {
		c.Retries = DefaultRetries
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.ReplicationQueue <= 0 {
		c.ReplicationQueue = DefaultReplicationQueue
	}
	if c.ReplicationWorkers <= 0 {
		c.ReplicationWorkers = DefaultReplicationWorkers
	}
	if c.OfferBatch <= 0 {
		c.OfferBatch = DefaultOfferBatch
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if c.GossipFanout <= 0 {
		c.GossipFanout = DefaultGossipFanout
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Cluster is one instance's view of the warm tier: the membership state
// machine, the ring built over its live members, one breaker and HTTP
// client per peer, and the async replication stage.
type Cluster struct {
	cfg     Config
	self    string
	seeds   []string
	members *Membership
	client  *http.Client
	log     *slog.Logger

	ringMu sync.Mutex // serializes ring rebuilds (reads are lock-free)
	ring   atomic.Pointer[Ring]

	bmu      sync.Mutex
	breakers map[string]*breaker // keyed by peer URL; created on demand

	replCh    chan replJob
	replWG    sync.WaitGroup
	stopCh    chan struct{}
	memDone   chan struct{}
	closeOnce sync.Once

	// sendMu fences the replication queue: enqueues hold it shared,
	// Close takes it exclusively to mark the queue closed before closing
	// the channel — the server closes the cluster before its worker
	// pools, so a fill finishing mid-shutdown can still call Replicate.
	sendMu sync.RWMutex
	closed bool

	// qmu guards qtimes, a FIFO of enqueue timestamps mirroring replCh;
	// its head is the age of the oldest job still waiting for a worker.
	qmu    sync.Mutex
	qtimes []time.Time

	stats clusterStats
}

// replJob is one queued write replication. Its targets are the
// digest's remote owners, resolved at dequeue, so a job honors ring
// changes that happen while it waits.
type replJob struct {
	digest  string
	payload []byte

	// Trace lineage of the originating request, so the async push can
	// open a background trace stitched to it.
	traceID    string
	parentSpan string
	enqueued   time.Time
}

// clusterStats are the Cluster's lifetime counters; read via Stats.
type clusterStats struct {
	fetchHits    atomic.Uint64
	fetchMisses  atomic.Uint64
	fetchErrors  atomic.Uint64
	breakerSkips atomic.Uint64

	replEnqueued atomic.Uint64
	replSent     atomic.Uint64
	replDropped  atomic.Uint64
	replErrors   atomic.Uint64

	offeredDigests atomic.Uint64
	offerErrors    atomic.Uint64

	ringChanges    atomic.Uint64
	heartbeats     atomic.Uint64
	heartbeatFails atomic.Uint64

	replicaFallthroughs atomic.Uint64
}

// Stats is a point-in-time snapshot of the cluster counters.
type Stats struct {
	FetchHits    uint64 `json:"fetch_hits"`
	FetchMisses  uint64 `json:"fetch_misses"`
	FetchErrors  uint64 `json:"fetch_errors"`
	BreakerSkips uint64 `json:"breaker_skips"`

	ReplicationsEnqueued uint64 `json:"replications_enqueued"`
	ReplicationsSent     uint64 `json:"replications_sent"`
	ReplicationsDropped  uint64 `json:"replications_dropped"`
	ReplicationErrors    uint64 `json:"replication_errors"`

	OfferedDigests uint64 `json:"offered_digests"`
	OfferErrors    uint64 `json:"offer_errors"`

	RingChanges       uint64 `json:"ring_changes"`
	Heartbeats        uint64 `json:"heartbeats"`
	HeartbeatFailures uint64 `json:"heartbeat_failures"`

	ReplicaFallthroughs uint64 `json:"replica_fallthroughs"`
}

// NewCluster validates the seed list, builds the initial ring over it
// and starts the replication workers and the membership gossip loop.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("peer: Self is required")
	}
	if err := validMemberURL(cfg.Self); err != nil {
		return nil, fmt.Errorf("peer: %w", err)
	}
	var seeds []string
	for _, m := range cfg.Peers {
		if err := validMemberURL(m); err != nil {
			return nil, fmt.Errorf("peer: %w", err)
		}
		if m != cfg.Self {
			seeds = append(seeds, m)
		}
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("peer: need at least one seed peer besides Self")
	}
	members := NewMembership(cfg.Self, MembershipConfig{
		SuspectAfter: cfg.SuspectAfter,
		DeadAfter:    cfg.DeadAfter,
		ReapAfter:    cfg.ReapAfter,
	})
	for _, s := range seeds {
		members.AddSeed(s)
	}
	c := &Cluster{
		cfg:      cfg,
		self:     cfg.Self,
		seeds:    seeds,
		members:  members,
		client:   &http.Client{Transport: cfg.Transport},
		log:      cfg.Logger,
		breakers: make(map[string]*breaker),
		replCh:   make(chan replJob, cfg.ReplicationQueue),
		stopCh:   make(chan struct{}),
		memDone:  make(chan struct{}),
	}
	c.ring.Store(NewRing(members.Live(), cfg.Replicas))
	c.replWG.Add(cfg.ReplicationWorkers)
	for i := 0; i < cfg.ReplicationWorkers; i++ {
		go c.replWorker()
	}
	go c.membershipLoop()
	return c, nil
}

// Self returns this instance's ring identity.
func (c *Cluster) Self() string { return c.self }

// Owner returns the current primary ring owner of digest.
func (c *Cluster) Owner(digest string) string { return c.ring.Load().Owner(digest) }

// Owners returns digest's current replica set: the first
// ReplicationFactor distinct members on the ring's successor list.
func (c *Cluster) Owners(digest string) []string {
	return c.ring.Load().Owners(digest, c.cfg.ReplicationFactor)
}

// remoteOwners is Owners without this instance, in placement order.
func (c *Cluster) remoteOwners(digest string) []string {
	var remote []string
	for _, o := range c.Owners(digest) {
		if o != c.self {
			remote = append(remote, o)
		}
	}
	return remote
}

// ReplicationFactor returns the configured replica count per digest.
func (c *Cluster) ReplicationFactor() int { return c.cfg.ReplicationFactor }

// Members returns the current ring member list (including Self).
func (c *Cluster) Members() []string { return c.ring.Load().Members() }

// RingEpoch returns the membership version the current ring reflects;
// it increments exactly when ring membership changes.
func (c *Cluster) RingEpoch() uint64 { return c.members.Version() }

// MembershipView returns the full member view including tombstones,
// sorted by URL — the /debug/vars and metrics surface.
func (c *Cluster) MembershipView() []MemberInfo { return c.members.Snapshot() }

// breakerFor returns (creating on demand) the breaker guarding url.
// Breakers are per-URL and survive membership churn: a member that
// flaps back in meets the same breaker state it earned.
func (c *Cluster) breakerFor(url string) *breaker {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	b, ok := c.breakers[url]
	if !ok {
		b = newBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		c.breakers[url] = b
	}
	return b
}

// noteSuccess records a completed exchange with a peer on its breaker
// and the failure detector.
func (c *Cluster) noteSuccess(url string, b *breaker) {
	b.success()
	c.members.ObserveAlive(url)
}

// noteFailure records a failed exchange; a breaker that opens marks the
// peer suspect immediately instead of waiting out the silence window.
func (c *Cluster) noteFailure(url string, b *breaker) {
	if b.failure() {
		c.members.ObserveSuspect(url)
	}
}

// tryEnqueue is the single entry into the replication queue: a
// non-blocking send, refused once Close has begun so a late Replicate
// can never hit a closed channel.
func (c *Cluster) tryEnqueue(j replJob) bool {
	c.sendMu.RLock()
	defer c.sendMu.RUnlock()
	if c.closed {
		return false
	}
	select {
	case c.replCh <- j:
		c.qmu.Lock()
		c.qtimes = append(c.qtimes, j.enqueued)
		c.qmu.Unlock()
		return true
	default:
		return false
	}
}

// refreshRing rebuilds the ring if the live membership no longer
// matches it, firing OnRingChange. Cheap when nothing changed; safe
// from any goroutine.
func (c *Cluster) refreshRing() {
	c.ringMu.Lock()
	live := c.members.Live()
	if sameMembers(c.ring.Load().Members(), live) {
		c.ringMu.Unlock()
		return
	}
	c.ring.Store(NewRing(live, c.cfg.Replicas))
	epoch := c.members.Version()
	c.stats.ringChanges.Add(1)
	c.ringMu.Unlock()
	c.log.Info("ring membership changed", "epoch", epoch, "members", len(live))
	if cb := c.cfg.OnRingChange; cb != nil {
		cb(epoch, live)
	}
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// membershipLoop is the gossip driver: an initial join burst to the
// seeds, then heartbeat rounds every HeartbeatInterval until Close.
func (c *Cluster) membershipLoop() {
	defer close(c.memDone)
	ctx := context.Background()
	for _, s := range c.seeds {
		if changed, err := c.exchange(ctx, s, JoinPath); err != nil {
			c.log.Debug("join attempt failed", "seed", s, "err", err)
		} else if changed {
			c.log.Info("joined via seed", "seed", s)
		}
	}
	c.refreshRing()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
		}
		c.heartbeatRound(ctx)
	}
}

// heartbeatRound advances the failure detector, gossips the view to a
// random fan-out of live peers, and sends one reconnection probe to a
// member outside the ring so healed partitions and restarted seeds are
// rediscovered.
func (c *Cluster) heartbeatRound(ctx context.Context) {
	c.members.Tick()
	var peers []string
	for _, m := range c.members.Live() {
		if m != c.self {
			peers = append(peers, m)
		}
	}
	rand.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > c.cfg.GossipFanout {
		peers = peers[:c.cfg.GossipFanout]
	}
	for _, p := range peers {
		if _, err := c.exchange(ctx, p, HeartbeatPath); err != nil {
			c.stats.heartbeatFails.Add(1)
			c.log.Debug("heartbeat failed", "peer", p, "err", err)
		} else {
			c.stats.heartbeats.Add(1)
		}
	}
	if probe := c.pickProbe(); probe != "" {
		// Best-effort: a dead member that answers will refute its
		// tombstone in the exchanged views and rejoin the ring.
		if _, err := c.exchange(ctx, probe, HeartbeatPath); err != nil {
			c.log.Debug("reconnection probe failed", "peer", probe, "err", err)
		}
	}
	c.refreshRing()
}

// pickProbe returns a random known member outside the ring, or a seed
// that has been reaped from the member list entirely ("" if neither).
func (c *Cluster) pickProbe() string {
	candidates := c.members.NonRing()
	for _, s := range c.seeds {
		if _, known := c.members.State(s); !known {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	return candidates[rand.Intn(len(candidates))]
}

// Leave performs a graceful departure: self is marked left (the ring
// drops its arcs), every locally held digest is offered to its
// post-departure owner so warm state survives the exit, and the
// departure is announced to live peers. Call before Close; requests
// arriving during the drain keep working against the reduced ring.
func (c *Cluster) Leave(ctx context.Context, digests []string, payload func(string) ([]byte, bool)) {
	view := c.members.Leave()
	c.refreshRing()
	c.antiEntropyRing(ctx, c.ring.Load(), digests, payload)
	c.announceLeave(ctx, view)
	c.log.Info("left the cluster", "handed_off_digests", len(digests))
}

// Close stops the membership loop and the replication workers; queued
// jobs are drained (each is one bounded HTTP attempt, breaker-gated, so
// this terminates quickly even with dead peers).
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		close(c.stopCh)
		<-c.memDone
		c.sendMu.Lock()
		c.closed = true
		c.sendMu.Unlock()
		close(c.replCh)
		c.replWG.Wait()
	})
}

// Stats returns a snapshot of the cluster counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		FetchHits:            c.stats.fetchHits.Load(),
		FetchMisses:          c.stats.fetchMisses.Load(),
		FetchErrors:          c.stats.fetchErrors.Load(),
		BreakerSkips:         c.stats.breakerSkips.Load(),
		ReplicationsEnqueued: c.stats.replEnqueued.Load(),
		ReplicationsSent:     c.stats.replSent.Load(),
		ReplicationsDropped:  c.stats.replDropped.Load(),
		ReplicationErrors:    c.stats.replErrors.Load(),
		OfferedDigests:       c.stats.offeredDigests.Load(),
		OfferErrors:          c.stats.offerErrors.Load(),
		RingChanges:          c.stats.ringChanges.Load(),
		Heartbeats:           c.stats.heartbeats.Load(),
		HeartbeatFailures:    c.stats.heartbeatFails.Load(),
		ReplicaFallthroughs:  c.stats.replicaFallthroughs.Load(),
	}
}

// PeerHealth is one peer's breaker and membership view for metrics.
type PeerHealth struct {
	URL    string `json:"url"`
	State  string `json:"state"`
	Member string `json:"member_state"`
	Fails  int    `json:"consecutive_failures"`
	Opens  uint64 `json:"opens"`
}

// Health returns the breaker state of every known peer, sorted by URL.
func (c *Cluster) Health() []PeerHealth {
	out := make([]PeerHealth, 0)
	for _, mi := range c.members.Snapshot() {
		if mi.URL == c.self {
			continue
		}
		snap := c.breakerFor(mi.URL).snapshot()
		out = append(out, PeerHealth{
			URL:    mi.URL,
			State:  snap.State,
			Member: mi.State.String(),
			Fails:  snap.Fails,
			Opens:  snap.Opens,
		})
	}
	return out
}

// ReplQueueDepth returns the number of replication jobs waiting for a
// worker.
func (c *Cluster) ReplQueueDepth() int { return len(c.replCh) }

// ReplQueueOldestAge returns how long the oldest still-queued
// replication job has been waiting (0 with an empty queue). Jobs a
// worker has already picked up no longer count.
func (c *Cluster) ReplQueueOldestAge() time.Duration {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if len(c.qtimes) == 0 {
		return 0
	}
	return time.Since(c.qtimes[0])
}

// ReportBadPayload records that owner served a payload that failed the
// caller's verification — it counts as a breaker failure exactly like a
// transport error, so a peer serving garbage gets cut off.
func (c *Cluster) ReportBadPayload(owner string) {
	c.noteFailure(owner, c.breakerFor(owner))
	c.stats.fetchErrors.Add(1)
}
