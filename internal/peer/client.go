package peer

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"codepack/internal/tenant"
	"codepack/internal/trace"
)

// Peer-protocol wire details, shared by client and Handler.
const (
	// CachePathPrefix is the internal cache endpoint; the digest is the
	// final path element.
	CachePathPrefix = "/internal/v1/cache/"
	// OfferPath is the anti-entropy offer endpoint.
	OfferPath = "/internal/v1/cache/offer"
	// SumHeader carries the hex SHA-256 of the payload end to end — the
	// same per-record sum the durable store keeps — so a corrupted or
	// substituted body is rejected before it is even parsed.
	SumHeader = "X-Cpackd-Sum"
	// HealthPath is the signed per-node health summary endpoint;
	// /debug/cluster pulls it from every live member and merges the
	// answers into one fleet view.
	HealthPath = "/internal/v1/health"
)

// maxReplyBytes bounds a health summary, offer answer or push reply.
const maxReplyBytes = 1 << 20

// FetchHealth GETs one member's signed health summary, returning the
// raw JSON document for the caller to decode (the server owns the
// schema; the peer layer only moves the bytes). Breaker-gated like
// every other peer call, one attempt — /debug/cluster reports an
// unreachable member rather than waiting on it.
func (c *Cluster) FetchHealth(ctx context.Context, member string) ([]byte, error) {
	b, err := c.admit(member)
	if err != nil {
		return nil, err
	}
	resp, body, err := c.call(ctx, http.MethodGet, member, HealthPath, "", nil, maxReplyBytes)
	if err != nil {
		c.noteFailure(member, b)
		return nil, err
	}
	c.noteReply(member, b, resp.StatusCode)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer: health returned %d", resp.StatusCode)
	}
	return body, nil
}

// FetchOutcome classifies one warm-tier lookup.
type FetchOutcome int

const (
	// FetchSelf: this instance owns the digest; there is no one to ask.
	FetchSelf FetchOutcome = iota
	// FetchHit: the owner returned a payload whose transport checksum
	// verified. (The caller still verifies it against the program.)
	FetchHit
	// FetchMiss: the owner answered definitively that it does not hold
	// the digest.
	FetchMiss
	// FetchUnavailable: no replica could be asked — breakers open, every
	// request failed, or the caller's context ended.
	FetchUnavailable
)

// Fetch asks digest's replica set for its cached payload, walking the
// successor list in placement order, one request per replica: a replica
// whose breaker is open is skipped outright, a replica that cannot be
// reached, answers 404 or serves a payload failing the caller's verify
// falls through to the next. verify (nil = accept) must be a pure check
// — Fetch itself charges a failed verification to the replica's
// breaker. A caller whose context ends stops the walk.
//
// It returns the payload (FetchHit only), the serving replica's URL,
// and the outcome; FetchSelf means the replica set holds no one but
// this instance. A replica that lacks the entry is not repaired here:
// the entry is recomputable, and anti-entropy re-offers it on the next
// ring change.
func (c *Cluster) Fetch(ctx context.Context, digest string, verify func(owner string, payload []byte) bool) ([]byte, string, FetchOutcome) {
	remote := c.remoteOwners(digest)
	if len(remote) == 0 {
		return nil, "", FetchSelf
	}
	ctx, fs := trace.Start(ctx, "peer-fetch",
		trace.String("owner", remote[0]),
		trace.String("digest", shortDigest(digest)),
		trace.Int("replicas", len(remote)))
	defer fs.End()

	missed := "" // first replica that answered a clean 404
	for ri, owner := range remote {
		b := c.breakerFor(owner)
		// The replica span's ID rides the request, so the owner's
		// peer_get trace parents on it.
		rctx, rs := trace.Start(ctx, "peer-replica",
			trace.String("owner", owner),
			trace.Int("replica", ri+1),
			trace.String("breaker", b.snapshot().State))
		payload, outcome, err := c.fetchReplica(rctx, owner, digest, b, verify)
		rs.SetAttr("outcome", outcome)
		if err != nil {
			rs.SetAttr("err", err.Error())
		}
		rs.End()
		switch outcome {
		case "hit":
			c.stats.fetchHits.Add(1)
			if ri > 0 {
				c.stats.replicaFallthroughs.Add(1)
			}
			fs.SetAttr("outcome", "hit")
			return payload, owner, FetchHit
		case "miss":
			if missed == "" {
				missed = owner
			}
		case "canceled":
			fs.SetAttr("outcome", "canceled")
			return nil, owner, FetchUnavailable
		}
	}
	if missed != "" {
		// Every reachable replica answered definitively: the entry is not
		// in the warm tier. (Unreachable replicas may still hold it, but
		// the caller should compress rather than wait for them.)
		fs.SetAttr("outcome", "miss")
		return nil, missed, FetchMiss
	}
	fs.SetAttr("outcome", "unavailable")
	return nil, remote[0], FetchUnavailable
}

// fetchReplica GETs digest from one replica, once. outcome is one of
// "hit", "miss", "breaker-skip", "verify-failed", "canceled" or
// "unavailable"; payload is set only for a hit. The replica is charged
// for a transport error, any status but 200 or 404, a checksum mismatch
// or a failed verify, and credited only once its payload passed both
// checks. A request cut short by the caller's own context says nothing
// about the replica, so it is neither charged nor counted as an error.
func (c *Cluster) fetchReplica(ctx context.Context, owner, digest string, b *breaker, verify func(string, []byte) bool) (payload []byte, outcome string, err error) {
	if !b.allow() {
		c.stats.breakerSkips.Add(1)
		return nil, "breaker-skip", nil
	}
	resp, body, err := c.call(ctx, http.MethodGet, owner, CachePathPrefix+digest, "", nil, maxPayloadBytes)
	switch {
	case err != nil && ctx.Err() != nil:
		b.release()
		return nil, "canceled", err
	case err != nil:
	case resp.StatusCode == http.StatusNotFound:
		c.noteSuccess(owner, b)
		c.stats.fetchMisses.Add(1)
		return nil, "miss", nil
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("peer: owner returned %d", resp.StatusCode)
	case resp.Header.Get(SumHeader) != payloadSum(body):
		err = fmt.Errorf("peer: payload checksum mismatch (header %q)", resp.Header.Get(SumHeader))
	case verify != nil && !verify(owner, body):
		// The replica served bytes that are not the program the digest
		// names.
		c.noteFailure(owner, b)
		c.stats.fetchErrors.Add(1)
		return nil, "verify-failed", nil
	default:
		c.noteSuccess(owner, b)
		return body, "hit", nil
	}
	c.noteFailure(owner, b)
	c.stats.fetchErrors.Add(1)
	c.log.Debug("peer fetch failed", "peer", owner, "digest", digest, "err", err)
	return nil, "unavailable", err
}

// Replicate enqueues an async best-effort push of a newly compressed
// entry to its replica set. Digests whose only owner is this instance
// stay local; a full queue drops the job (anti-entropy repairs the gap
// later) so the request path never blocks on replication.
//
// The owners are resolved when the push is sent, not here: a job that
// waits out a membership change drains to the owners of the ring as it
// is then, so the queue never feeds departed members.
func (c *Cluster) Replicate(ctx context.Context, digest string, payload []byte) {
	_, es := trace.Start(ctx, "repl-enqueue", trace.String("digest", shortDigest(digest)))
	defer es.End()
	if len(c.remoteOwners(digest)) == 0 {
		es.SetAttr("outcome", "self")
		return
	}
	j := replJob{
		digest:     digest,
		payload:    payload,
		traceID:    trace.ID(ctx),
		parentSpan: trace.SpanFromContext(ctx).SpanID(),
		enqueued:   time.Now(),
	}
	if c.tryEnqueue(j) {
		c.stats.replEnqueued.Add(1)
		es.SetAttr("outcome", "enqueued")
	} else {
		c.stats.replDropped.Add(1)
		es.SetAttr("outcome", "dropped")
	}
}

func (c *Cluster) replWorker() {
	defer c.replWG.Done()
	for j := range c.replCh {
		c.qmu.Lock()
		if len(c.qtimes) > 0 {
			c.qtimes = append(c.qtimes[:0], c.qtimes[1:]...)
		}
		c.qmu.Unlock()
		targets := c.remoteOwners(j.digest)
		if len(targets) == 0 {
			continue // ownership moved entirely to us while the job was queued
		}
		// The push runs long after the originating request returned, so
		// it gets its own background trace — same trace ID, root
		// parented on the enqueuing span — that /debug/trace/recent can
		// stitch back to the request that caused it.
		ctx := context.Background()
		var root *trace.Span
		if c.cfg.Tracer != nil {
			id := j.traceID
			if id == "" {
				id = trace.NewID()
			}
			ctx = trace.WithID(ctx, id)
			ctx, root = c.cfg.Tracer.StartTrace(ctx, id, j.parentSpan, "replicate", "replicate",
				trace.String("digest", shortDigest(j.digest)),
				trace.Int("targets", len(targets)))
			root.SetAttr("queue_wait_ms", float64(time.Since(j.enqueued))/float64(time.Millisecond))
		}
		for _, owner := range targets {
			if err := c.push(ctx, owner, j.digest, j.payload); err != nil {
				c.stats.replErrors.Add(1)
				root.SetAttr("err", err.Error())
				c.log.Debug("replication push failed",
					"peer", owner, "digest", j.digest, "err", err)
			} else {
				c.stats.replSent.Add(1)
			}
		}
		root.End()
	}
}

// push PUTs one payload to owner, breaker-gated, one attempt.
func (c *Cluster) push(ctx context.Context, owner, digest string, payload []byte) (err error) {
	ctx, ps := trace.Start(ctx, "peer-put",
		trace.String("owner", owner),
		trace.String("digest", shortDigest(digest)),
		trace.Int("bytes", len(payload)))
	defer func() {
		if err != nil {
			ps.SetAttr("err", err.Error())
		}
		ps.End()
	}()
	b, err := c.admit(owner)
	if err != nil {
		return err
	}
	resp, _, err := c.call(ctx, http.MethodPut, owner, CachePathPrefix+digest,
		"application/octet-stream", payload, maxReplyBytes)
	if err != nil {
		c.noteFailure(owner, b)
		return err
	}
	c.noteReply(owner, b, resp.StatusCode)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peer: replication target returned %d", resp.StatusCode)
	}
	return nil
}

// AntiEntropy offers every locally held digest to each member of its
// replica set and pushes the ones each owner asks for; payload resolves
// a digest to its marshalled bytes at push time (an entry evicted
// meanwhile is skipped). Run it in a goroutine at startup and after
// every ring change: it is synchronous, breaker-gated and abandons a
// peer on the first error rather than retrying — the next ring change,
// restart, or normal write-replication closes any remaining gap.
func (c *Cluster) AntiEntropy(ctx context.Context, digests []string, payload func(string) ([]byte, bool)) {
	c.antiEntropyRing(ctx, c.ring.Load(), digests, payload)
}

// antiEntropyRing is AntiEntropy against an explicit ring — Leave hands
// off over the ring that excludes self.
func (c *Cluster) antiEntropyRing(ctx context.Context, ring *Ring, digests []string, payload func(string) ([]byte, bool)) {
	byOwner := make(map[string][]string)
	for _, d := range digests {
		for _, owner := range ring.Owners(d, c.cfg.ReplicationFactor) {
			if owner != "" && owner != c.self {
				byOwner[owner] = append(byOwner[owner], d)
			}
		}
	}
	for owner, ds := range byOwner {
		for len(ds) > 0 && ctx.Err() == nil {
			batch := ds
			if len(batch) > c.cfg.OfferBatch {
				batch = batch[:c.cfg.OfferBatch]
			}
			ds = ds[len(batch):]
			want, err := c.offer(ctx, owner, batch)
			if err != nil {
				c.stats.offerErrors.Add(1)
				c.log.Debug("anti-entropy offer failed", "peer", owner, "err", err)
				break
			}
			c.stats.offeredDigests.Add(uint64(len(batch)))
			for _, d := range want {
				p, ok := payload(d)
				if !ok {
					continue
				}
				if err := c.push(ctx, owner, d, p); err != nil {
					c.stats.replErrors.Add(1)
				} else {
					c.stats.replSent.Add(1)
				}
			}
		}
	}
}

// offer POSTs a digest batch to owner and returns the subset it wants.
func (c *Cluster) offer(ctx context.Context, owner string, digests []string) (want []string, err error) {
	ctx, os := trace.Start(ctx, "peer-offer",
		trace.String("owner", owner),
		trace.Int("digests", len(digests)))
	defer func() {
		if err != nil {
			os.SetAttr("err", err.Error())
		} else {
			os.SetAttr("want", len(want))
		}
		os.End()
	}()
	body, err := json.Marshal(offerRequest{Digests: digests})
	if err != nil {
		return nil, err
	}
	b, err := c.admit(owner)
	if err != nil {
		return nil, err
	}
	resp, reply, err := c.call(ctx, http.MethodPost, owner, OfferPath, "application/json", body, maxReplyBytes)
	if err != nil {
		c.noteFailure(owner, b)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		c.noteReply(owner, b, resp.StatusCode)
		return nil, fmt.Errorf("peer: offer returned %d", resp.StatusCode)
	}
	var or offerResponse
	if err := json.Unmarshal(reply, &or); err != nil {
		c.noteFailure(owner, b)
		return nil, err
	}
	c.noteSuccess(owner, b)
	return or.Want, nil
}

// call sends one request to member and returns the response with its
// body read (at most limit bytes) and closed. It applies FetchTimeout
// to the whole exchange, forwards the trace headers, signs the request
// and, when there is a body, labels it with contentType and its SHA-256.
// An error means no complete answer arrived — a transport failure, a
// timeout, or an unreadable or oversized reply. Judging the status, and
// charging or crediting the member's breaker, is the caller's job.
func (c *Cluster) call(ctx context.Context, method, member, path, contentType string, body []byte, limit int64) (*http.Response, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.FetchTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, member+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
		req.Header.Set(SumHeader, payloadSum(body))
	}
	c.setTraceHeader(req, ctx)
	c.signRequest(req, body)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, nil, err
	}
	if int64(len(reply)) > limit {
		return nil, nil, fmt.Errorf("peer: %s %s reply exceeds %d bytes", method, path, limit)
	}
	return resp, reply, nil
}

// setTraceHeader forwards the originating request's trace ID (minting
// one for background work) so one logical request logs the same ID on
// every instance it touches, and the calling span's ID so the receiving
// node's trace parents onto ours.
func (c *Cluster) setTraceHeader(req *http.Request, ctx context.Context) {
	id := trace.ID(ctx)
	if id == "" {
		id = trace.NewID()
	}
	req.Header.Set(trace.Header, id)
	if sid := trace.SpanFromContext(ctx).SpanID(); sid != "" {
		req.Header.Set(trace.SpanHeader, sid)
	}
}

// signRequest stamps an outbound internal request with the cluster's
// HMAC signature. A no-op when the cluster runs in unsigned open mode
// (no AuthKey configured). The key func is consulted per request so a
// SIGHUP key rotation takes effect without rebuilding the client.
func (c *Cluster) signRequest(req *http.Request, body []byte) {
	if c.cfg.AuthKey == nil {
		return
	}
	key := c.cfg.AuthKey()
	if len(key) == 0 {
		return
	}
	req.Header.Set(tenant.InternalHeader,
		tenant.SignInternal(key, req.Method, req.URL.Path, body, time.Now()))
}

// shortDigest truncates a content digest for span attributes — enough
// to correlate, not enough to bloat every trace.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// payloadSum is the hex SHA-256 a payload travels with in SumHeader.
func payloadSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
