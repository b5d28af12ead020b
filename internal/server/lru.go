package server

import (
	"log/slog"
	"sync"

	"codepack"
)

// compCache is the content-addressed compression cache: SHA-256 digest of
// the marshalled program image -> its compressed form, so repeat
// compressions of the same image are served from memory. Eviction reuses
// the timestamp-scan LRU idiom of internal/cache: every entry carries the
// clock value of its last touch and the victim scan picks the minimum.
// The scan is O(entries) per eviction, which at service cache sizes
// (hundreds of entries, each worth a full dictionary build) is noise next
// to a compression, and keeps the structure a flat map with no list links.
//
// With a diskStore attached the cache is durable: every entry that
// becomes verified is written to its own file, and every eviction
// removes the evicted entry's file, so the directory holds the resident
// verified set. Disk work runs outside the cache lock, so disk latency
// never blocks readers; persist is the one place that takes the cache
// lock while holding the store's.
type compCache struct {
	mu      sync.Mutex
	cap     int
	clock   uint64
	entries map[string]*compEntry

	hits, misses, evictions uint64
	bytes                   int64

	// Persistence (nil store = memory only).
	store *diskStore
	log   *slog.Logger
}

type compEntry struct {
	comp  *codepack.Compressed
	stamp uint64
	bytes int64

	// verified marks entries whose payload is known to decompress to
	// the program their digest names: everything compressed locally or
	// restored from the durable store. Entries replicated from peers
	// arrive unverified (quarantined): they are served to peers — who
	// verify for themselves — but a local request must prove the entry
	// against its own program (confirm) before trusting it, and only
	// verified entries are ever persisted.
	verified bool
}

// cacheStats is a point-in-time view of the cache counters.
type cacheStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	Unverified int    `json:"unverified"`
}

// newCompCache builds a cache holding at most capEntries compressed
// programs; capEntries <= 0 disables caching (every get is a miss).
func newCompCache(capEntries int) *compCache {
	c := &compCache{cap: capEntries, log: slog.Default()}
	if capEntries > 0 {
		c.entries = make(map[string]*compEntry, capEntries)
	}
	return c
}

// attachStore makes the cache durable: recovered entries are loaded in
// write order, oldest first. Returns the number of entries restored into
// the cache; entries whose payloads no longer parse are removed from
// disk, and entries beyond the cache capacity evict oldest-first, their
// files removed like any other eviction's.
func (c *compCache) attachStore(st *diskStore, recovered []storedEntry, logger *slog.Logger) int {
	if c.cap <= 0 || st == nil {
		return 0
	}
	if logger != nil {
		c.log = logger
	}
	c.store = st
	restored := 0
	for _, e := range recovered {
		comp, err := codepack.UnmarshalCompressed("cached", e.payload)
		if err != nil {
			st.discard(e.key, "payload does not parse")
			continue
		}
		// Only verified entries are persisted, so restored entries are
		// trusted as verified, and they are on disk already.
		if _, evicted := c.putMem(e.key, comp, true); evicted != "" {
			c.persist(evicted)
		}
		restored++
	}
	st.mu.Lock()
	st.stats.RestoredEntries = uint64(restored)
	st.mu.Unlock()
	return restored
}

func (c *compCache) get(key string) (*codepack.Compressed, bool) {
	comp, _, ok := c.getEntry(key)
	return comp, ok
}

// getEntry is get plus the entry's verification state; callers holding
// the program the digest names use it to prove quarantined replicas
// before trusting them.
func (c *compCache) getEntry(key string) (comp *codepack.Compressed, verified, ok bool) {
	return c.lookup(key, true)
}

// recheck is getEntry without the miss accounting: the singleflight
// leader re-probes the cache after acquiring the flight key, and that
// probe must not count the same request's miss twice. A hit still
// counts (the fill was satisfied from memory after all).
func (c *compCache) recheck(key string) (comp *codepack.Compressed, verified, ok bool) {
	return c.lookup(key, false)
}

func (c *compCache) lookup(key string, countMiss bool) (comp *codepack.Compressed, verified, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		return nil, false, false
	}
	c.hits++
	c.clock++
	e.stamp = c.clock
	return e.comp, e.verified, true
}

func (c *compCache) put(key string, comp *codepack.Compressed) {
	c.insert(key, comp, true)
}

// putReplicated quarantines an entry pushed by a peer: resident and
// servable to other peers, but unverified — never persisted and never
// trusted by a local request until confirm proves it.
func (c *compCache) putReplicated(key string, comp *codepack.Compressed) {
	c.insert(key, comp, false)
}

func (c *compCache) insert(key string, comp *codepack.Compressed, verified bool) {
	nowVerified, evicted := c.putMem(key, comp, verified)
	if evicted != "" {
		c.persist(evicted)
	}
	if nowVerified {
		c.persist(key)
	}
}

// confirm marks key's quarantined entry verified and persists it, if the
// entry still holds comp, the payload the caller proved against its
// program: an eviction and a fresh push may have replaced it since.
func (c *compCache) confirm(key string, comp *codepack.Compressed) {
	c.mu.Lock()
	e, ok := c.entries[key]
	ok = ok && e.comp == comp && !e.verified
	if ok {
		e.verified = true
	}
	c.mu.Unlock()
	if ok {
		c.persist(key)
	}
}

// drop removes key's quarantined entry if it still holds comp, the
// payload the caller saw fail verification.
func (c *compCache) drop(key string, comp *codepack.Compressed) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.comp == comp && !e.verified {
		c.bytes -= e.bytes
		delete(c.entries, key)
	}
}

// persist makes key's entry file match the cache: written when key is
// resident and verified, removed otherwise. The check runs under the
// cache lock while the store lock is held, so persists of one key apply
// in the order they observed the cache, and the last one leaves the
// file matching the cache's final state. Every change to a key's
// residency or verification is followed by a persist of that key.
func (c *compCache) persist(key string) {
	st := c.store
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	c.mu.Lock()
	var comp *codepack.Compressed
	if e, ok := c.entries[key]; ok && e.verified {
		comp = e.comp
	}
	c.mu.Unlock()
	var err error
	if comp != nil {
		err = st.write(key, comp.Marshal())
	} else {
		err = st.remove(key)
	}
	if err != nil {
		c.log.Warn("cache persist failed", "key", key, "err", err)
	}
}

// putMem inserts into the in-memory map. It reports whether the call made
// key's entry newly verified — a new verified entry, or a verified put
// over a quarantined replica, which takes the put's payload since the
// replica's was never proven — and which key, if any, it evicted. A
// refresh never downgrades an entry: a verified entry stays verified
// even if a peer replicates the same digest again.
func (c *compCache) putMem(key string, comp *codepack.Compressed, verified bool) (nowVerified bool, evicted string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return false, ""
	}
	c.clock++
	if e, ok := c.entries[key]; ok {
		e.stamp = c.clock
		if e.verified || !verified {
			return false, ""
		}
		bytes := int64(comp.Stats().CompressedBytes())
		c.bytes += bytes - e.bytes
		e.comp, e.bytes, e.verified = comp, bytes, true
		return true, ""
	}
	if len(c.entries) >= c.cap {
		var oldest uint64
		first := true
		for k, e := range c.entries {
			if first || e.stamp < oldest {
				evicted, oldest, first = k, e.stamp, false
			}
		}
		c.bytes -= c.entries[evicted].bytes
		delete(c.entries, evicted)
		c.evictions++
	}
	bytes := int64(comp.Stats().CompressedBytes())
	c.entries[key] = &compEntry{comp: comp, stamp: c.clock, bytes: bytes, verified: verified}
	c.bytes += bytes
	return verified, evicted
}

// payload returns the marshalled bytes cached under key for the peer
// protocol — quarantined entries included, since the requesting peer
// verifies payloads against its own program. It refreshes recency but
// does not count toward hit/miss rates (peer traffic would skew them).
func (c *compCache) payload(key string) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	var comp *codepack.Compressed
	if ok {
		c.clock++
		e.stamp = c.clock
		comp = e.comp
	}
	c.mu.Unlock()
	if comp == nil {
		return nil, false
	}
	// Marshal outside the lock: payloads can be large.
	return comp.Marshal(), true
}

// has reports residency with no side effects (anti-entropy offers).
func (c *compCache) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// keys snapshots the resident digests (the startup anti-entropy pass).
func (c *compCache) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	return out
}

// close makes the persisted entries durable (the SIGTERM flush) and
// closes the store. Safe to call multiple times and with no store.
func (c *compCache) close() {
	if c.store == nil {
		return
	}
	if err := c.store.close(); err != nil {
		c.log.Warn("cache store close failed", "err", err)
	}
}

func (c *compCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	unverified := 0
	for _, e := range c.entries {
		if !e.verified {
			unverified++
		}
	}
	return cacheStats{
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Entries:    len(c.entries),
		Bytes:      c.bytes,
		Unverified: unverified,
	}
}
