package server

import (
	"bytes"
	"fmt"
	"testing"

	"codepack"
)

// makeComp builds a distinct small compressed program for cache tests.
func makeComp(t *testing.T, seed uint32) *codepack.Compressed {
	t.Helper()
	text := make([]uint32, 64)
	for i := range text {
		text[i] = 0x24020000 | seed<<6 | uint32(i) // addiu-shaped words
	}
	c, err := codepack.CompressWords(fmt.Sprintf("prog%d", seed), 0x00400000, text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompCacheHitMiss(t *testing.T) {
	c := newCompCache(4)
	if _, _, ok := c.lookup("a", true); ok {
		t.Fatal("hit on empty cache")
	}
	comp := makeComp(t, 1)
	c.put("a", comp)
	got, _, ok := c.lookup("a", true)
	if !ok || got != comp {
		t.Fatal("put entry not returned")
	}
	s := c.stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats %+v, want hits=1 misses=1 entries=1", s)
	}
	if s.Bytes <= 0 {
		t.Errorf("resident bytes %d, want > 0", s.Bytes)
	}
}

func TestCompCacheEvictsLRU(t *testing.T) {
	c := newCompCache(2)
	c.put("a", makeComp(t, 1))
	c.put("b", makeComp(t, 2))
	c.lookup("a", true) // a is now most recently used
	c.put("c", makeComp(t, 3))
	if _, _, ok := c.lookup("b", true); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, _, ok := c.lookup("a", true); !ok {
		t.Error("a (recently used) was evicted")
	}
	if _, _, ok := c.lookup("c", true); !ok {
		t.Error("c (just inserted) missing")
	}
	if s := c.stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats %+v, want evictions=1 entries=2", s)
	}
}

func TestCompCacheDisabled(t *testing.T) {
	c := newCompCache(-1)
	c.put("a", makeComp(t, 1))
	if _, _, ok := c.lookup("a", true); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if s := c.stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Errorf("disabled cache holds state: %+v", s)
	}
}

// TestVerifiedPutReplacesQuarantined: a local compression landing on a
// digest that holds an unproven peer replica must install its own
// payload, not promote the replica's bytes to verified, and persist it.
func TestVerifiedPutReplacesQuarantined(t *testing.T) {
	dir := t.TempDir()
	st, recovered := openTestStore(t, dir)
	c := newCompCache(4)
	c.attachStore(st, recovered, quietLogger())
	key := digestKey("d")
	bad, good := makeComp(t, 1), makeComp(t, 2)
	c.putReplicated(key, bad)
	c.put(key, good)
	comp, verified, ok := c.lookup(key, true)
	if !ok || comp != good || !verified {
		t.Fatalf("after a verified put over a replica: good=%v verified=%v ok=%v", comp == good, verified, ok)
	}
	if s := c.stats(); s.Bytes != int64(good.Stats().CompressedBytes()) {
		t.Errorf("resident bytes %d, want the verified payload's %d", s.Bytes, good.Stats().CompressedBytes())
	}
	c.close()
	_, entries := openTestStore(t, dir)
	if len(entries) != 1 || entries[0].key != key || !bytes.Equal(entries[0].payload, good.Marshal()) {
		t.Fatalf("disk holds %d entries, want the verified payload under %s", len(entries), key)
	}
}

// TestConfirmDropActOnProvenPayload: confirm and drop act on the payload
// the caller proved or disproved, not on whatever is resident by the
// time they run. In a one-entry cache an eviction and a fresh push can
// swap the entry between the caller's read and its call.
func TestConfirmDropActOnProvenPayload(t *testing.T) {
	key, other := digestKey("d"), digestKey("x")

	// confirm: the proven replica was replaced by an unproven one, which
	// must stay quarantined.
	c := newCompCache(1)
	proven, unproven := makeComp(t, 1), makeComp(t, 2)
	c.putReplicated(key, proven)
	read, _, _ := c.lookup(key, true)
	c.put(other, makeComp(t, 3))   // evicts key
	c.putReplicated(key, unproven) // evicts other
	c.confirm(key, read)
	if comp, verified, _ := c.lookup(key, true); comp != unproven || verified {
		t.Errorf("confirm of a replaced replica verified the newcomer (newcomer=%v verified=%v)", comp == unproven, verified)
	}

	// drop: the failed replica was replaced by a local compression, which
	// must survive.
	c = newCompCache(1)
	bad, good := makeComp(t, 4), makeComp(t, 5)
	c.putReplicated(key, bad)
	read, _, _ = c.lookup(key, true)
	c.put(other, makeComp(t, 6)) // evicts key
	c.put(key, good)             // evicts other
	c.drop(key, read)
	if comp, verified, ok := c.lookup(key, true); !ok || comp != good || !verified {
		t.Errorf("drop of a failed replica removed the verified entry that replaced it (ok=%v)", ok)
	}
}
