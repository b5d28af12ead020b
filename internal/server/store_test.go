package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"codepack/internal/peer"
)

// openTestStore opens a store in dir and registers cleanup.
func openTestStore(t *testing.T, dir string) (*diskStore, []storedEntry) {
	t.Helper()
	st, entries, err := openStore(dir, quietLogger())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.close() })
	return st, entries
}

func entryKeys(entries []storedEntry) []string {
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.key
	}
	return keys
}

// digestKey derives a cache key (64 lowercase hex characters) from a
// readable name.
func digestKey(name string) string {
	sum := sha256.Sum256([]byte(name))
	return hex.EncodeToString(sum[:])
}

// storeWrite writes one entry file the way compCache.persist does, under
// the store lock.
func storeWrite(t *testing.T, st *diskStore, key string, payload []byte) {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.write(key, payload); err != nil {
		t.Fatal(err)
	}
}

// entryFiles lists the entry file names in dir.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		if peer.ValidDigest(de.Name()) {
			out = append(out, de.Name())
		}
	}
	slices.Sort(out)
	return out
}

func TestStoreAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, entries := openTestStore(t, dir)
	if len(entries) != 0 {
		t.Fatalf("fresh store restored %d entries", len(entries))
	}
	k1, k2, k3 := digestKey("k1"), digestKey("k2"), digestKey("k3")
	payloads := map[string][]byte{
		k1: []byte("payload one"),
		k2: bytes.Repeat([]byte{0xAB}, 1024),
		k3: {}, // empty payloads are legal
	}
	for _, k := range []string{k1, k2, k3} {
		storeWrite(t, st, k, payloads[k])
	}
	// Re-write k1: it takes a newer sequence number and restores last.
	storeWrite(t, st, k1, payloads[k1])
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	st2, entries2 := openTestStore(t, dir)
	if got, want := entryKeys(entries2), []string{k2, k3, k1}; !slices.Equal(got, want) {
		t.Fatalf("restore order %v, want %v", got, want)
	}
	for _, e := range entries2 {
		if !bytes.Equal(e.payload, payloads[e.key]) {
			t.Errorf("%s payload corrupted", e.key)
		}
	}
	if ss := st2.statsSnapshot(); ss.RecordsSkipped != 0 {
		t.Errorf("stats %+v, want nothing skipped", ss)
	}
	if st2.seq != entries2[2].seq+1 {
		t.Errorf("next sequence %d, want one past the newest restored (%d)", st2.seq, entries2[2].seq)
	}
}

// TestStoreDamagedEntryFiles covers the crash and corruption shapes a
// boot must survive; checkDamagedEntry says what each must leave behind.
func TestStoreDamagedEntryFiles(t *testing.T) {
	cases := []struct {
		name   string
		damage func(raw []byte) []byte
	}{
		{"cut mid-header", func(raw []byte) []byte { return raw[:entryHeader/2] }},
		{"cut mid-payload", func(raw []byte) []byte { return raw[:entryHeader+(len(raw)-entryHeader)/2] }},
		{"flipped payload bit", func(raw []byte) []byte { raw[entryHeader+3] ^= 0x10; return raw }},
		{"wrong magic", func(raw []byte) []byte { raw[0] ^= 0xFF; return raw }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkDamagedEntry(t, tc.damage) })
	}
}

// TestStoreBadSumSkipsRecord damages the recorded SHA-256 rather than the
// payload: the intact payload must not be trusted against a wrong sum.
func TestStoreBadSumSkipsRecord(t *testing.T) {
	checkDamagedEntry(t, func(raw []byte) []byte { raw[len(entryMagic)+8+2] ^= 0xFF; return raw })
}

// checkDamagedEntry writes three entries, applies damage to the middle
// one's file and reopens the store: the damaged file must be removed and
// counted while its intact neighbours restore, and a file whose name is
// not a key (such as a cache.log left by an older release) must be left
// untouched.
func checkDamagedEntry(t *testing.T, damage func(raw []byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	good1, bad, good2 := digestKey("good1"), digestKey("bad"), digestKey("good2")
	storeWrite(t, st, good1, []byte("one"))
	storeWrite(t, st, bad, bytes.Repeat([]byte{7}, 400))
	storeWrite(t, st, good2, []byte("two"))
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(dir, bad)
	raw, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, damage(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	legacy := []byte("CPKCACH1 a log from an older release")
	legacyPath := filepath.Join(dir, "cache.log")
	if err := os.WriteFile(legacyPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, entries := openTestStore(t, dir)
	if got := entryKeys(entries); !slices.Equal(got, []string{good1, good2}) {
		t.Fatalf("restored %v, want [good1 good2]", got)
	}
	if ss := st2.statsSnapshot(); ss.RecordsSkipped != 1 {
		t.Errorf("records skipped = %d, want 1", ss.RecordsSkipped)
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Errorf("damaged entry file not removed: %v", err)
	}
	if got, err := os.ReadFile(legacyPath); err != nil || !bytes.Equal(got, legacy) {
		t.Errorf("non-entry file changed: %q, %v", got, err)
	}
}
