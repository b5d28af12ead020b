package server

import (
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
	if got := scrapeMetric(t, ts2, "cpackd_cache_persist_replayed_bytes"); got <= 0 {
		t.Errorf("cpackd_cache_persist_replayed_bytes = %v, want > 0", got)
	}
}

// TestRestartAfterTornTail is the kill -9 shape at the package level: the
// log ends mid-record (as after a SIGKILL during an append) and the next
// boot must still recover every complete entry.
func TestRestartAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	req := CompressRequest{ProgramRef: ProgramRef{ImageB64: testImageB64(t)}}

	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	decodeBody[CompressResponse](t, postJSON(t, ts1.URL+"/v1/compress", req), http.StatusOK)
	ts1.Close()
	s1.Close()

	// Append half a record to the log: a torn tail.
	logPath := filepath.Join(dir, logFileName)
	torn := encodeRecord("torn-key", make([]byte, 512))
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, ts2 := newTestServer(t, Config{CacheDir: dir})
	resp := decodeBody[CompressResponse](t, postJSON(t, ts2.URL+"/v1/compress", req), http.StatusOK)
	if !resp.Cached {
		t.Error("entry before the torn tail was not recovered")
	}
	if got := scrapeMetric(t, ts2, "cpackd_cache_persist_tail_truncations_total"); got < 1 {
		t.Errorf("cpackd_cache_persist_tail_truncations_total = %v, want >= 1", got)
	}
}

// TestPersistedCacheRespectsCapacity: restoring more entries than the
// cache holds must evict oldest-first, not grow past the cap.
func TestPersistedCacheRespectsCapacity(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	var keys []string
	for i := 0; i < 6; i++ {
		comp := makeComp(t, uint32(i+1))
		key := fmt.Sprintf("key-%d", i)
		keys = append(keys, key)
		if err := st.append(key, comp.Marshal()); err != nil {
			t.Fatal(err)
		}
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
	// The two oldest records are the evicted ones.
	for _, k := range keys[:2] {
		if _, ok := c.get(k); ok {
			t.Errorf("oldest key %s survived past capacity", k)
		}
	}
	for _, k := range keys[2:] {
		if _, ok := c.get(k); !ok {
			t.Errorf("recent key %s missing after restore", k)
		}
	}
}

// TestCompCacheSnapshotSkipsQuarantined: a peer-replicated entry no
// local request has verified stays out of the durable store, compaction
// snapshots included, so a restart cannot restore it as verified. Once
// confirmed it is persisted like any other entry.
func TestCompCacheSnapshotSkipsQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, recovered := openTestStore(t, dir)
	c := newCompCache(4)
	c.attachStore(st, recovered, quietLogger())
	c.put("local", makeComp(t, 1))
	c.putReplicated("replica", makeComp(t, 2))
	c.putReplicated("confirmed", makeComp(t, 3))
	c.confirm("confirmed")
	if err := c.compactNow(); err != nil {
		t.Fatal(err)
	}
	c.close()

	_, entries := openTestStore(t, dir)
	if got := entryKeys(entries); !slices.Equal(got, []string{"local", "confirmed"}) {
		t.Fatalf("snapshot holds %v, want [local confirmed]", got)
	}
}

// TestCompCacheStressRace hammers a persistent cache from many goroutines
// — put, get, stats and explicit compactions racing — then reopens the
// store and checks every surviving record still verifies. Run under
// -race this is the load-bearing ordering check on the LRU + store pair.
func TestCompCacheStressRace(t *testing.T) {
	dir := t.TempDir()
	st, recovered := openTestStore(t, dir)
	st.compactMinBytes = 1 // compact eagerly to maximize interleaving
	st.compactRatio = 1

	// Prebuild the working set: compression is too slow for the hot loop.
	const distinct = 24
	pool := make([]compEntrySeed, distinct)
	for i := range pool {
		pool[i] = compEntrySeed{
			key:  fmt.Sprintf("stress-%02d", i),
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
				switch i % 3 {
				case 0:
					c.put(e.key, e.comp)
				case 1:
					c.get(e.key)
				default:
					c.stats()
				}
			}
		}(g)
	}
	// Compactions racing with puts and gets.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := c.compactNow(); err != nil {
				t.Errorf("compact under load: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if s := c.stats(); s.Entries > 8 {
		t.Errorf("cache exceeded capacity under load: %d entries", s.Entries)
	}
	c.close()

	// Everything on disk must still parse and verify.
	st2, entries := openTestStore(t, dir)
	if len(entries) == 0 {
		t.Fatal("no entries survived the stress run")
	}
	if len(entries) > 8 {
		t.Errorf("final snapshot holds %d entries, cap is 8", len(entries))
	}
	if ss := st2.statsSnapshot(); ss.RecordsSkipped != 0 || ss.TailTruncations != 0 {
		t.Errorf("clean shutdown left corruption: %+v", ss)
	}
}

// compEntrySeed pairs a key with a prebuilt compressed program for the
// stress test.
type compEntrySeed struct {
	key  string
	comp *codepack.Compressed
}
