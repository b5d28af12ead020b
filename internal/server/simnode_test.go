package server

import (
	"sort"

	"codepack"
	"codepack/internal/peer"
)

// simNode is one simulated cpackd instance: the real membership state
// machine on the world's virtual clock, the real ring over its live
// view, and the real compCache with its entry files in dir, which
// outlives crashes like a -cache-dir.
type simNode struct {
	w     *World
	url   string
	seeds []string
	dir   string

	up      bool
	incarn  int // bumped per start and crash; stale timers and callbacks check it
	mem     *peer.Membership
	ring    *peer.Ring
	ringVer uint64
	cache   *compCache

	stats nodeStats
}

// nodeStats are one node's lifetime event counters — per-node
// observability mirroring the live cluster's Stats, so schedules can
// assert where activity happened, not just that it happened. They
// survive crashes and restarts.
type nodeStats struct {
	// HeartbeatsSent counts gossip exchanges initiated (join bursts,
	// heartbeat fan-out and reconnection probes included).
	HeartbeatsSent int
	// AEPasses counts anti-entropy offer/want passes started.
	AEPasses int
	// ReplicationsSent counts payload pushes initiated (replication
	// after a local compression and AE pushes).
	ReplicationsSent int
	// Quarantines counts pushed payloads Accept took in as new entries.
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
// the cache restored from its entry files as cpackd's New does, a join
// burst to the seeds, then the heartbeat timer chain.
func (n *simNode) start() {
	n.w.logf("start %s", n.url)
	n.up = true
	n.incarn++
	n.mem = peer.NewMembership(n.url, peer.MembershipConfig{Now: n.w.clock})
	for _, s := range n.seeds {
		n.mem.AddSeed(s)
	}
	st, recovered, err := openStore(n.dir, quietLogger())
	if err != nil {
		n.w.t.Fatal(err)
	}
	n.cache = newCompCache(DefaultCacheEntries)
	n.cache.attachStore(st, recovered, quietLogger())
	n.ringVer = 0
	n.checkRing() // builds the first ring and schedules the startup AE pass
	for _, s := range n.seeds {
		n.gossipTo(s)
	}
	n.scheduleTick()
}

// crash stops the node hard: the cache is dropped without close, so only
// what already reached its entry files survives, and every pending
// timer, callback or request step is orphaned by the incarnation bump.
func (n *simNode) crash() {
	n.up = false
	n.incarn++
	n.cache = nil
}

// alive reports whether the node is still the incarnation that
// scheduled a callback.
func (n *simNode) alive(incarn int) bool { return n.up && n.incarn == incarn }

func (n *simNode) scheduleTick() {
	incarn := n.incarn
	n.w.schedule(peer.DefaultHeartbeatInterval, func() {
		if !n.alive(incarn) {
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
func (n *simNode) tick() {
	n.mem.Tick()
	n.checkRing()
	var peers []string
	for _, m := range n.mem.Live() {
		if m != n.url {
			peers = append(peers, m)
		}
	}
	n.w.rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	if len(peers) > peer.DefaultGossipFanout {
		peers = peers[:peer.DefaultGossipFanout]
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
func (n *simNode) gossipTo(target string) {
	n.stats.HeartbeatsSent++
	req := gossipMsg{From: n.mem.SelfInfo(), Members: n.mem.Snapshot()}
	incarn := n.incarn
	n.w.rpc(n.url, target,
		func(tn *simNode) any { return tn.handleGossip(req) },
		func(resp any, ok bool) {
			if !ok || !n.alive(incarn) {
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
func (n *simNode) handleGossip(msg gossipMsg) gossipMsg {
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
func (n *simNode) checkRing() {
	v := n.mem.Version()
	if v == n.ringVer {
		return
	}
	n.ringVer = v
	n.ring = peer.NewRing(n.mem.Live())
	n.w.stats.RingChanges++
	n.w.logf("ring %s %v", n.url, n.mem.Live())
	incarn := n.incarn
	n.w.schedule(simMinDelay, func() {
		if n.alive(incarn) && n.ringVer == v {
			n.runAE()
		}
	})
}

// runAE is one offer/want/push pass: every resident digest is offered
// to its current remote owners, which answer with the ones they lack
// (Missing); pushes travel the faulty transport into their Accept.
func (n *simNode) runAE() {
	n.stats.AEPasses++
	digests := n.cache.keys()
	sort.Strings(digests)
	byOwner := make(map[string][]string)
	for _, d := range digests {
		for _, o := range n.ring.Owners(d, n.w.cfg.ReplicationFactor) {
			if o != n.url {
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
		offered := byOwner[owner]
		incarn := n.incarn
		n.w.rpc(n.url, owner,
			func(tn *simNode) any { return tn.cache.Missing(offered) },
			func(resp any, ok bool) {
				if !ok || !n.alive(incarn) {
					return
				}
				for _, d := range resp.([]string) {
					if payload, held := n.cache.Payload(d); held {
						n.sendPut(owner, d, payload)
					}
				}
			})
	}
}

// sendPut replicates one payload over the faulty transport (async
// best-effort, like the replication queue): an unanswered push is not
// retried — anti-entropy on the next ring change closes the gap.
func (n *simNode) sendPut(target, digest string, payload []byte) {
	n.stats.ReplicationsSent++
	n.w.rpc(n.url, target,
		func(tn *simNode) any { tn.accept(digest, payload); return nil },
		func(any, bool) {})
}

// accept is the receiving side of a push: the shipping Accept.
func (n *simNode) accept(digest string, payload []byte) {
	held := n.holds(digest)
	if err := n.cache.Accept(digest, payload); err != nil {
		n.w.t.Fatalf("sim: %s rejected a well-formed payload: %v", n.url, err)
	}
	if !held {
		n.stats.Quarantines++
	}
}

// holds reports whether digest is resident, quarantined or verified.
func (n *simNode) holds(digest string) bool {
	return len(n.cache.Missing([]string{digest})) == 0
}

// compress is a client request for p, run as Server.compressImage and
// fillMiss run it: trusted, then a walk of the digest's remote replicas
// in placement order (fetch), then a local compression. Each replica GET
// reads the replica's cache one hop after it is sent and answers one hop
// later, so pushes, evictions, crashes and restarts land between the
// lookup and the put. done runs once the client is answered, or once a
// crash has dropped the request.
func (n *simNode) compress(p *simProgram, done func()) {
	if comp, ok := n.cache.trusted(p.digest, p.im, true); ok {
		n.answer(p, comp)
		done()
		return
	}
	var remote []string
	for _, o := range n.ring.Owners(p.digest, n.w.cfg.ReplicationFactor) {
		if o != n.url {
			remote = append(remote, o)
		}
	}
	n.fetch(p, remote, 0, n.incarn, done)
}

// fetch asks remote[ri] for p's payload and proves it against the
// program before the put; a miss, an unreachable replica or a wrong
// payload walks on. Past the last replica the node compresses, puts,
// answers and pushes to every remote owner.
func (n *simNode) fetch(p *simProgram, remote []string, ri, incarn int, done func()) {
	if ri == len(remote) {
		comp, err := codepack.Compress(p.im)
		if err != nil {
			n.w.t.Fatal(err)
		}
		n.w.stats.Recompressions++
		n.w.logf("recompress %s %s", n.url, p.label)
		n.cache.put(p.digest, comp)
		n.answer(p, comp)
		done()
		payload := comp.Marshal()
		for _, o := range remote {
			n.sendPut(o, p.digest, payload)
		}
		return
	}
	o := n.w.nodes[remote[ri]]
	// A replica that is down, partitioned away or loses the roll fails
	// at once, as a refused connection or an open breaker does.
	if !o.up || n.w.blocked(n.url, o.url) || n.w.rng.Float64() < n.w.cfg.DropProb {
		n.fetch(p, remote, ri+1, incarn, done)
		return
	}
	n.w.schedule(n.w.delay(), func() {
		var payload []byte
		found := false
		if o.up {
			payload, found = o.cache.Payload(p.digest)
		}
		n.w.schedule(n.w.delay(), func() {
			if !n.alive(incarn) {
				done()
				return
			}
			if found {
				comp, err := codepack.UnmarshalCompressed(p.im.Name, payload)
				if err == nil && compMatchesImage(comp, p.im) {
					if ri > 0 {
						n.stats.ReplicaFallthroughs++
						n.w.logf("fallthrough %s %s ri=%d", n.url, p.label, ri)
					}
					n.cache.put(p.digest, comp)
					n.answer(p, comp)
					done()
					return
				}
			}
			n.fetch(p, remote, ri+1, incarn, done)
		})
	})
}

// answer records what the client was answered with and checks the
// invariants against the shipping state: the payload decompresses to
// the program, and it is not a resident entry still unverified.
func (n *simNode) answer(p *simProgram, comp *codepack.Compressed) {
	n.w.committed[p.digest] = true
	if !compMatchesImage(comp, p.im) {
		n.w.stats.WrongServed++
	}
	n.cache.mu.Lock()
	if e, ok := n.cache.entries[p.digest]; ok && e.comp == comp && !e.verified {
		n.w.stats.UnverifiedServed++
	}
	n.cache.mu.Unlock()
}
