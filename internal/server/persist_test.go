package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"codepack"
)

// TestRestartRecoversCache is the end-to-end restart round trip: populate
// a persistent cache over HTTP, shut the server down, start a fresh one
// on the same directory and assert the second run serves pure cache hits
// — zero recompressions — with the hit visible in /metrics.
func TestRestartRecoversCache(t *testing.T) {
	dir := t.TempDir()
	imgB64 := testImageB64(t)
	req := CompressRequest{ProgramRef: ProgramRef{ImageB64: imgB64}}

	// First life: populate and shut down gracefully.
	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	first := decodeBody[CompressResponse](t, postJSON(t, ts1.URL+"/v1/compress", req), http.StatusOK)
	if first.Cached {
		t.Fatal("first compression reported cached")
	}
	ts1.Close()
	s1.Close()

	// Second life: same directory, fresh process state.
	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	second := decodeBody[CompressResponse](t, postJSON(t, ts2.URL+"/v1/compress", req), http.StatusOK)
	if !second.Cached {
		t.Fatal("restarted server recompressed a persisted entry")
	}
	if second.Digest != first.Digest || second.CompressedB64 != first.CompressedB64 {
		t.Error("restored entry differs from the original compression")
	}
	cs := s2.cache.stats()
	if cs.Misses != 0 {
		t.Errorf("restarted server recorded %d cache misses, want 0 (zero recompression)", cs.Misses)
	}
	if cs.Hits != 1 {
		t.Errorf("restarted server recorded %d cache hits, want 1", cs.Hits)
	}
	if got := scrapeMetric(t, ts2, "cpackd_cache_hits_total"); got != 1 {
		t.Errorf("cpackd_cache_hits_total = %v, want 1", got)
	}
	if got := scrapeMetric(t, ts2, "cpackd_cache_persist_restored_entries"); got != 1 {
		t.Errorf("cpackd_cache_persist_restored_entries = %v, want 1", got)
	}
}

// TestRestartAfterTornTail is the kill -9 shape at the package level: an
// entry file cut short (as after a SIGKILL during its write) sits beside
// an intact one, and the next boot must restore the intact entry and
// remove and count the torn one.
func TestRestartAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	req := CompressRequest{ProgramRef: ProgramRef{ImageB64: testImageB64(t)}}

	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	decodeBody[CompressResponse](t, postJSON(t, ts1.URL+"/v1/compress", req), http.StatusOK)
	ts1.Close()
	s1.Close()

	files := entryFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("entry files after one compression: %v", files)
	}
	raw, err := os.ReadFile(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(dir, digestKey("torn"))
	if err := os.WriteFile(tornPath, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{CacheDir: dir})
	resp := decodeBody[CompressResponse](t, postJSON(t, ts2.URL+"/v1/compress", req), http.StatusOK)
	if !resp.Cached {
		t.Error("intact entry beside the torn file was not recovered")
	}
	if got := scrapeMetric(t, ts2, "cpackd_cache_persist_records_skipped_total"); got != 1 {
		t.Errorf("cpackd_cache_persist_records_skipped_total = %v, want 1", got)
	}
	if _, err := os.Stat(tornPath); !os.IsNotExist(err) {
		t.Errorf("torn entry file not removed: %v", err)
	}
}

// TestPersistedCacheRespectsCapacity: restoring more entries than the
// cache holds must evict oldest-first, not grow past the cap, and remove
// the evicted entries' files.
func TestPersistedCacheRespectsCapacity(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	var keys []string
	for i := 0; i < 6; i++ {
		key := digestKey(fmt.Sprintf("key-%d", i))
		keys = append(keys, key)
		storeWrite(t, st, key, makeComp(t, uint32(i+1)).Marshal())
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	st2, recovered := openTestStore(t, dir)
	c := newCompCache(4)
	if restored := c.attachStore(st2, recovered, quietLogger()); restored != 6 {
		t.Fatalf("attachStore restored %d, want 6 (cap applies inside the cache)", restored)
	}
	defer c.close()
	if s := c.stats(); s.Entries != 4 || s.Evictions != 2 {
		t.Fatalf("stats %+v, want 4 entries after 2 evictions", s)
	}
	// The two oldest entries are the evicted ones.
	for _, k := range keys[:2] {
		if _, _, ok := c.lookup(k, true); ok {
			t.Errorf("oldest key %s survived past capacity", k)
		}
		if _, err := os.Stat(filepath.Join(dir, k)); !os.IsNotExist(err) {
			t.Errorf("evicted key %s still has its entry file: %v", k, err)
		}
	}
	for _, k := range keys[2:] {
		if _, _, ok := c.lookup(k, true); !ok {
			t.Errorf("recent key %s missing after restore", k)
		}
	}
	if got, want := entryFiles(t, dir), slices.Sorted(slices.Values(keys[2:])); !slices.Equal(got, want) {
		t.Errorf("entry files %v, want the four resident keys", got)
	}
}

// TestEvictionRemovesEntryFile: an eviction removes the evicted entry's
// file, so the directory holds exactly the resident set.
func TestEvictionRemovesEntryFile(t *testing.T) {
	dir := t.TempDir()
	st, recovered := openTestStore(t, dir)
	c := newCompCache(2)
	c.attachStore(st, recovered, quietLogger())
	a, b, d := digestKey("a"), digestKey("b"), digestKey("c")
	c.put(a, makeComp(t, 1))
	c.put(b, makeComp(t, 2))
	c.put(d, makeComp(t, 3))
	if got, want := entryFiles(t, dir), slices.Sorted(slices.Values([]string{b, d})); !slices.Equal(got, want) {
		t.Fatalf("entry files %v, want exactly b and c", got)
	}
}

// TestCompCacheDiskSkipsQuarantined: a peer-replicated entry no local
// request has verified stays off disk, so a restart cannot restore it as
// verified. Once confirmed it is persisted like any other entry.
func TestCompCacheDiskSkipsQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, recovered := openTestStore(t, dir)
	c := newCompCache(4)
	c.attachStore(st, recovered, quietLogger())
	local, replica, confirmed := digestKey("local"), digestKey("replica"), digestKey("confirmed")
	c.put(local, makeComp(t, 1))
	c.putReplicated(replica, makeComp(t, 2))
	proven := makeComp(t, 3)
	c.putReplicated(confirmed, proven)
	c.confirm(confirmed, proven)
	c.close()

	_, entries := openTestStore(t, dir)
	if got := entryKeys(entries); !slices.Equal(got, []string{local, confirmed}) {
		t.Fatalf("disk holds %v, want [local confirmed]", got)
	}
}

// TestCompCacheStressRace hammers a persistent cache from many goroutines
// — put, replicated put, confirm, get and stats racing over a working
// set three times the capacity — then checks that the entry files are
// exactly the resident verified keys and that a reopen skips nothing.
// Run under -race this is the load-bearing ordering check on the LRU +
// store pair.
func TestCompCacheStressRace(t *testing.T) {
	dir := t.TempDir()
	st, recovered := openTestStore(t, dir)

	// Prebuild the working set: compression is too slow for the hot loop.
	const distinct = 24
	pool := make([]compEntrySeed, distinct)
	for i := range pool {
		pool[i] = compEntrySeed{
			key:  digestKey(fmt.Sprintf("stress-%02d", i)),
			comp: makeComp(t, uint32(i+1)),
		}
	}

	c := newCompCache(8)
	c.attachStore(st, recovered, quietLogger())

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				e := pool[rng.Intn(distinct)]
				switch i % 5 {
				case 0:
					c.put(e.key, e.comp)
				case 1:
					c.putReplicated(e.key, e.comp)
				case 2:
					if comp, verified, ok := c.lookup(e.key, true); ok && !verified {
						c.confirm(e.key, comp)
					}
				case 3:
					c.lookup(e.key, true)
				default:
					c.stats()
				}
			}
		}(g)
	}
	wg.Wait()

	if s := c.stats(); s.Entries > 8 {
		t.Errorf("cache exceeded capacity under load: %d entries", s.Entries)
	}
	var verified []string
	c.mu.Lock()
	for k, e := range c.entries {
		if e.verified {
			verified = append(verified, k)
		}
	}
	c.mu.Unlock()
	slices.Sort(verified)
	c.close()

	if got := entryFiles(t, dir); !slices.Equal(got, verified) {
		t.Fatalf("entry files %v, want the resident verified keys %v", got, verified)
	}
	st2, entries := openTestStore(t, dir)
	if len(entries) != len(verified) {
		t.Errorf("reopen restored %d entries, want %d", len(entries), len(verified))
	}
	if ss := st2.statsSnapshot(); ss.RecordsSkipped != 0 {
		t.Errorf("clean shutdown left damaged entry files: %+v", ss)
	}
	for _, e := range entries {
		i := slices.IndexFunc(pool, func(p compEntrySeed) bool { return p.key == e.key })
		if !bytes.Equal(e.payload, pool[i].comp.Marshal()) {
			t.Errorf("entry %s holds the wrong payload", e.key)
		}
	}
}

// compEntrySeed pairs a key with a prebuilt compressed program for the
// stress test.
type compEntrySeed struct {
	key  string
	comp *codepack.Compressed
}
