package sim

import (
	"bytes"
	"sort"

	"codepack/internal/peer"
)

// entry is one cached payload; unverified entries are quarantined
// replicas, exactly as in internal/server's compCache.
type entry struct {
	payload  []byte
	verified bool
}

// node is one simulated cpackd instance: the real membership state
// machine on the world's virtual clock, the real ring over its live
// view, and a two-tier cache (volatile map + durable store of verified
// entries that survives a crash, the -cache-dir analogue).
type node struct {
	w     *World
	url   string
	seeds []string

	up      bool
	incarn  int // bumped per start; stale timers and callbacks check it
	mem     *peer.Membership
	ring    *peer.Ring
	ringVer uint64
	cache   map[string]entry
	durable map[string][]byte

	stats NodeStats
}

// NodeStats are one node's lifetime event counters — per-node
// observability mirroring the live cluster's Stats, so schedules can
// assert where activity happened, not just that it happened. They
// survive crashes and restarts (a restart is the same process in the
// real daemon's analogue of a reboot loop).
type NodeStats struct {
	// HeartbeatsSent counts gossip exchanges initiated (join bursts,
	// heartbeat fan-out and reconnection probes included).
	HeartbeatsSent int
	// AEPasses counts anti-entropy offer/want passes started.
	AEPasses int
	// ReplicationsSent counts payload pushes initiated (async
	// replication and AE pushes).
	ReplicationsSent int
	// Quarantines counts replicated payloads accepted into quarantine.
	Quarantines int
	// ReplicaFallthroughs counts fetches served by a replica after an
	// earlier one in placement order failed or missed.
	ReplicaFallthroughs int
}

// gossipMsg mirrors peer.MembershipMsg for the in-memory transport.
type gossipMsg struct {
	From    peer.MemberInfo
	Members []peer.MemberInfo
}

func stateInRing(s peer.MemberState) bool {
	return s == peer.StateAlive || s == peer.StateSuspect
}

// start boots (or reboots) the node: fresh membership at generation 1,
// cache reloaded from the durable store, join burst to the seeds, then
// the heartbeat timer chain.
func (n *node) start() {
	n.w.logf("start %s", n.url)
	n.up = true
	n.incarn++
	n.mem = peer.NewMembership(n.url, peer.MembershipConfig{
		SuspectAfter: n.w.cfg.SuspectAfter,
		DeadAfter:    n.w.cfg.DeadAfter,
		Now:          n.w.clock,
	})
	for _, s := range n.seeds {
		n.mem.AddSeed(s)
	}
	n.ringVer = 0
	n.cache = make(map[string]entry, len(n.durable))
	for d, p := range n.durable {
		n.cache[d] = entry{payload: p, verified: true}
	}
	n.checkRing() // builds the first ring and schedules the startup AE pass
	for _, s := range n.seeds {
		n.gossipTo(s)
	}
	n.scheduleTick()
}

// crash stops the node hard: volatile cache and membership are gone
// (the durable store stays), and every pending timer or callback is
// orphaned by the incarnation bump.
func (n *node) crash() {
	n.up = false
	n.incarn++
	n.cache = nil
}

func (n *node) scheduleTick() {
	incarn := n.incarn
	n.w.schedule(n.w.cfg.HeartbeatInterval, func() {
		if !n.up || n.incarn != incarn {
			return
		}
		n.tick()
		n.scheduleTick()
	})
}

// tick is one heartbeat round, mirroring Cluster.heartbeatRound:
// advance the failure detector, gossip to a random fan-out of live
// peers, probe one member outside the ring so healed partitions and
// restarted nodes are rediscovered.
func (n *node) tick() {
	n.mem.Tick()
	n.checkRing()
	var peers []string
	for _, m := range n.mem.Live() {
		if m != n.url {
			peers = append(peers, m)
		}
	}
	n.w.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > n.w.cfg.GossipFanout {
		peers = peers[:n.w.cfg.GossipFanout]
	}
	for _, p := range peers {
		n.gossipTo(p)
	}
	candidates := n.mem.NonRing()
	for _, s := range n.seeds {
		if _, known := n.mem.State(s); !known {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) > 0 {
		n.gossipTo(candidates[n.w.rng.Intn(len(candidates))])
	}
}

// gossipTo is one view exchange with target over the faulty transport,
// mirroring Cluster.exchange + handleMembership.
func (n *node) gossipTo(target string) {
	n.stats.HeartbeatsSent++
	req := gossipMsg{From: n.mem.SelfInfo(), Members: n.mem.Snapshot()}
	incarn := n.incarn
	n.w.rpc(n.url, target,
		func(tn *node) any { return tn.handleGossip(req) },
		func(resp any, ok bool) {
			if !ok || !n.up || n.incarn != incarn {
				return
			}
			r := resp.(gossipMsg)
			n.mem.Merge(append(r.Members, r.From))
			if r.From.URL == target && stateInRing(r.From.State) {
				n.mem.ObserveAlive(target)
			}
			n.checkRing()
		})
}

// handleGossip is the receiving side of a view exchange.
func (n *node) handleGossip(msg gossipMsg) gossipMsg {
	n.mem.Merge(append(msg.Members, msg.From))
	if stateInRing(msg.From.State) {
		n.mem.ObserveAlive(msg.From.URL)
	}
	n.checkRing()
	return gossipMsg{From: n.mem.SelfInfo(), Members: n.mem.Snapshot()}
}

// checkRing rebuilds the ring when the membership version moved and
// schedules an anti-entropy pass for the new ring — the sim analogue of
// Cluster.refreshRing firing the server's OnRingChange trigger.
func (n *node) checkRing() {
	v := n.mem.Version()
	if v == n.ringVer {
		return
	}
	n.ringVer = v
	n.ring = peer.NewRing(n.mem.Live(), n.w.cfg.Replicas)
	n.w.stats.RingChanges++
	n.w.logf("ring %s %v", n.url, n.mem.Live())
	incarn := n.incarn
	n.w.schedule(n.w.cfg.MinDelay, func() {
		if n.up && n.incarn == incarn && n.ringVer == v {
			n.runAE()
		}
	})
}

// runAE is one offer/want/push pass: every locally held digest is
// offered to its current ring owner, which asks for the ones it lacks.
// Pushes travel the faulty transport and land in the owner's
// quarantine.
func (n *node) runAE() {
	n.stats.AEPasses++
	byOwner := make(map[string][]string)
	var digests []string
	for d := range n.cache {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	for _, d := range digests {
		for _, o := range n.ring.Owners(d, n.w.cfg.ReplicationFactor) {
			if o != "" && o != n.url {
				byOwner[o] = append(byOwner[o], d)
			}
		}
	}
	owners := make([]string, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	for _, owner := range owners {
		ds := byOwner[owner]
		incarn := n.incarn
		target := owner
		n.w.rpc(n.url, target,
			func(tn *node) any { return tn.handleOffer(ds) },
			func(resp any, ok bool) {
				if !ok || !n.up || n.incarn != incarn {
					return
				}
				for _, d := range resp.([]string) {
					if e, held := n.cache[d]; held {
						n.sendPut(target, d, e.payload)
					}
				}
			})
	}
}

// handleOffer returns the subset of offered digests the node lacks.
func (n *node) handleOffer(digests []string) []string {
	var want []string
	for _, d := range digests {
		if _, ok := n.cache[d]; !ok {
			want = append(want, d)
		}
	}
	return want
}

// sendPut replicates one payload over the faulty transport (async
// best-effort, like the replication queue): an unanswered push is not
// retried — anti-entropy on the next ring change closes the gap.
func (n *node) sendPut(target, digest string, payload []byte) {
	n.stats.ReplicationsSent++
	n.w.rpc(n.url, target,
		func(tn *node) any { tn.handlePut(digest, payload); return true },
		func(any, bool) {})
}

// handlePut quarantines a replicated payload: stored unverified, and
// never replacing an entry already held — putMem's no-downgrade rule.
func (n *node) handlePut(digest string, payload []byte) {
	if _, ok := n.cache[digest]; ok {
		return
	}
	n.stats.Quarantines++
	n.cache[digest] = entry{payload: payload}
}

// compress is the client-facing tiered lookup, mirroring
// Server.compressImage/fillMiss: verified local entry, quarantined
// entry proven against the program (confirm or drop), then a walk of
// the digest's replica set in placement order with verify-before-trust,
// then local compression + async replication to every remote owner.
func (n *node) compress(digest string) {
	truth := canonical(digest)
	if e, ok := n.cache[digest]; ok {
		if e.verified {
			n.serve(digest, e)
			return
		}
		if bytes.Equal(e.payload, truth) {
			e.verified = true
			n.cache[digest] = e
			n.durable[digest] = e.payload
			n.serve(digest, e)
			return
		}
		delete(n.cache, digest) // quarantined replica failed verification
	}
	var remote []string
	for _, o := range n.ring.Owners(digest, n.w.cfg.ReplicationFactor) {
		if o != "" && o != n.url {
			remote = append(remote, o)
		}
	}
	for ri, o := range remote {
		payload, found, reachable := n.w.syncFetch(n.url, o, digest)
		if !reachable || !found {
			continue // down, partitioned, dropped or a clean miss: walk on
		}
		if !bytes.Equal(payload, truth) {
			continue // wrong payload: never trusted, walk on
		}
		if ri > 0 {
			n.stats.ReplicaFallthroughs++
			n.w.logf("fallthrough %s %s ri=%d", n.url, digest, ri)
		}
		e := entry{payload: payload, verified: true}
		n.cache[digest] = e
		n.durable[digest] = payload
		n.serve(digest, e)
		return
	}
	n.w.stats.Recompressions++
	n.w.logf("recompress %s %s", n.url, digest)
	e := entry{payload: truth, verified: true}
	n.cache[digest] = e
	n.durable[digest] = truth
	n.serve(digest, e)
	for _, o := range remote {
		n.sendPut(o, digest, truth)
	}
}

// serve records what a client was answered with and checks the
// invariants: only verified, only correct.
func (n *node) serve(digest string, e entry) {
	if !e.verified {
		n.w.stats.UnverifiedServed++
	}
	if !bytes.Equal(e.payload, canonical(digest)) {
		n.w.stats.WrongServed++
	}
}

// syncFetch models the synchronous replica GET on the request path.
// reachable is false when the replica is down, partitioned away, or a
// drop is rolled; found distinguishes a clean 404 from a served payload. A replica serves whatever it holds,
// verified or not — the fetcher's verification is the trust boundary,
// as in the real handler.
func (w *World) syncFetch(from, to, digest string) (payload []byte, found, reachable bool) {
	tn := w.nodes[to]
	if tn == nil || !tn.up || w.blocked(from, to) || w.rng.Float64() < w.cfg.DropProb {
		return nil, false, false
	}
	e, ok := tn.cache[digest]
	if !ok {
		return nil, false, true
	}
	return e.payload, true, true
}
