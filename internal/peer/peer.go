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
// Failure handling is local and bounded: every outbound call is one
// request under a per-request timeout, with no retries (a fetch that
// fails falls through to the next replica, then to local compression),
// and a per-peer circuit breaker opens after consecutive failures
// (requests then skip the peer entirely) and probes the peer back to
// health after a cooldown. A breaker opening also feeds the failure
// detector: the peer is marked suspect immediately rather than waiting
// out the full silence window.
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

// Defaults for Config zero values, and the fixed size of the async
// write-replication stage: a full queue drops (replication is
// best-effort — anti-entropy repairs the gaps).
const (
	DefaultFetchTimeout       = 2 * time.Second
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

	// ReplicationFactor is how many distinct members own each digest
	// (successor-list placement on the ring). 0 or 1 keeps the classic
	// single-owner behaviour; higher values replicate writes to every
	// owner and let fetches fall through to the next replica when one is
	// unreachable or serves a payload that fails verification. A factor
	// above the live member count degrades gracefully to all members.
	ReplicationFactor int

	// FetchTimeout bounds one whole peer request: a fetch from one
	// replica, a replication push, an offer, a health pull or a
	// membership exchange.
	FetchTimeout time.Duration

	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker; BreakerCooldown how long it stays open
	// before a probe.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// OfferBatch caps the digests per anti-entropy offer request.
	OfferBatch int

	// HeartbeatInterval paces the gossip rounds
	// (0 = DefaultHeartbeatInterval).
	HeartbeatInterval time.Duration
	// SuspectAfter is how long a member may go unheard before it is
	// suspected; DeadAfter before a suspect is declared dead and leaves
	// the ring. Zero values pick the membership defaults.
	SuspectAfter time.Duration
	DeadAfter    time.Duration

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

	// Tracer, when non-nil, records spans for peer traffic: request-path
	// fetches join the caller's trace via context, and background work
	// (replication pushes) opens its own trace here, stitched to the
	// originating request by trace ID and parent span.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 1
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = DefaultFetchTimeout
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.OfferBatch <= 0 {
		c.OfferBatch = DefaultOfferBatch
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
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
	FetchHits   uint64 // lookups a replica served, checksum and verify passed
	FetchMisses uint64 // replicas that answered 404, one per replica asked
	// FetchErrors counts replica fetches that failed: transport error,
	// unexpected status, checksum mismatch or a failed verify.
	FetchErrors uint64
	// BreakerSkips counts calls an open breaker refused, fetches and
	// background calls (pushes, offers, health pulls) alike.
	BreakerSkips uint64

	ReplicationsEnqueued uint64
	ReplicationsSent     uint64
	ReplicationsDropped  uint64
	ReplicationErrors    uint64

	OfferedDigests uint64
	OfferErrors    uint64

	RingChanges       uint64
	Heartbeats        uint64
	HeartbeatFailures uint64

	ReplicaFallthroughs uint64
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
	})
	for _, s := range seeds {
		members.AddSeed(s)
	}
	c := &Cluster{
		cfg:      cfg,
		self:     cfg.Self,
		seeds:    seeds,
		members:  members,
		client:   &http.Client{},
		log:      cfg.Logger,
		breakers: make(map[string]*breaker),
		replCh:   make(chan replJob, DefaultReplicationQueue),
		stopCh:   make(chan struct{}),
		memDone:  make(chan struct{}),
	}
	c.ring.Store(NewRing(members.Live()))
	c.replWG.Add(DefaultReplicationWorkers)
	for i := 0; i < DefaultReplicationWorkers; i++ {
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

// admit returns member's breaker if it lets a request through, and
// counts a skip otherwise.
func (c *Cluster) admit(member string) (*breaker, error) {
	b := c.breakerFor(member)
	if !b.allow() {
		c.stats.breakerSkips.Add(1)
		return nil, fmt.Errorf("peer: breaker open for %s", member)
	}
	return b, nil
}

// noteReply records a peer's answer on its breaker: the peer answered,
// so it is alive, and only a 5xx counts against it.
func (c *Cluster) noteReply(url string, b *breaker, status int) {
	if status >= 500 {
		c.noteFailure(url, b)
	} else {
		c.noteSuccess(url, b)
	}
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
	c.ring.Store(NewRing(live))
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
	if len(peers) > DefaultGossipFanout {
		peers = peers[:DefaultGossipFanout]
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
	URL    string
	State  string
	Member string
	Fails  int
	Opens  uint64
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
