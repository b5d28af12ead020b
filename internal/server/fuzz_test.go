package server

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadCacheEntry feeds arbitrary bytes to the entry file decoder: it
// must never panic, must accept input only when the header is intact and
// the payload matches its SHA-256, and an accepted file must be exactly
// what encodeEntry writes. Any payload must round-trip encode → decode.
// Seeds cover the shapes recovery exists for: truncation, bit flips and
// a wrong magic.
func FuzzLoadCacheEntry(f *testing.F) {
	good := encodeEntry(3, bytes.Repeat([]byte("payload"), 9))
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	badMagic := bytes.Clone(good)
	badMagic[0] ^= 0xFF
	f.Add(good, uint64(1))
	f.Add(good[:entryHeader-5], uint64(2)) // cut mid-header
	f.Add(good[:len(good)-5], uint64(3))   // cut mid-payload
	f.Add(flipped, uint64(4))
	f.Add(badMagic, uint64(5))
	f.Add([]byte{}, uint64(0))
	f.Add(make([]byte, 256), ^uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, seq uint64) {
		if got, payload, ok := decodeEntry(data); ok {
			sum := sha256.Sum256(payload)
			if len(data) < entryHeader || string(data[:len(entryMagic)]) != entryMagic ||
				!bytes.Equal(sum[:], data[len(entryMagic)+8:entryHeader]) {
				t.Fatalf("accepted a file with a damaged header or sum: %x", data)
			}
			if !bytes.Equal(encodeEntry(got, payload), data) {
				t.Fatalf("accepted file is not what encodeEntry writes for seq %d", got)
			}
		}
		got, payload, ok := decodeEntry(encodeEntry(seq, data))
		if !ok || got != seq || !bytes.Equal(payload, data) {
			t.Fatalf("round trip of %d payload bytes at seq %d: ok=%v seq=%d", len(data), seq, ok, got)
		}
	})
}

// FuzzRecoverCacheDir drives full filesystem recovery with fuzzed bytes
// in one entry file beside a valid one: openStore must not fail, the
// valid entry must be restored, and an entry written after recovery must
// survive a reopen. Slower than FuzzLoadCacheEntry (real files), so it
// keeps a minimal corpus.
func FuzzRecoverCacheDir(f *testing.F) {
	good := encodeEntry(0, []byte("a valid neighbour"))
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{})

	validKey, fuzzKey, freshKey := digestKey("valid"), digestKey("fuzzed"), digestKey("fresh")
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, validKey), good, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fuzzKey), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, entries, err := openStore(dir, quietLogger())
		if err != nil {
			t.Fatalf("openStore failed on corrupt input: %v", err)
		}
		if !hasEntry(entries, validKey, []byte("a valid neighbour")) {
			t.Fatal("valid entry beside the fuzzed file was not restored")
		}
		storeWrite(t, st, freshKey, []byte("fresh"))
		if err := st.close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		st2, entries, err := openStore(dir, quietLogger())
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer st2.close()
		if !hasEntry(entries, freshKey, []byte("fresh")) || !hasEntry(entries, validKey, []byte("a valid neighbour")) {
			t.Fatal("an entry did not survive a reopen after recovery")
		}
	})
}

func hasEntry(entries []storedEntry, key string, payload []byte) bool {
	for _, e := range entries {
		if e.key == key && bytes.Equal(e.payload, payload) {
			return true
		}
	}
	return false
}
