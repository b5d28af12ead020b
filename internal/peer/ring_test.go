package peer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// testKeys returns n digest-shaped keys (hex SHA-256 strings, like the
// real cache keys).
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	return keys
}

func TestRingDeterministicAcrossMemberOrder(t *testing.T) {
	a := NewRing([]string{"http://a:1", "http://b:1", "http://c:1"})
	b := NewRing([]string{"http://c:1", "http://a:1", "http://b:1", "http://a:1"})
	for _, k := range testKeys(500) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner of %s disagrees across member orderings: %s vs %s",
				k, a.Owner(k), b.Owner(k))
		}
	}
	if got, want := len(b.Members()), 3; got != want {
		t.Errorf("Members() = %d entries after dedup, want %d", got, want)
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if owner := NewRing(nil).Owner("x"); owner != "" {
		t.Errorf("empty ring owner = %q, want \"\"", owner)
	}
	r := NewRing([]string{"http://solo:1"})
	for _, k := range testKeys(50) {
		if r.Owner(k) != "http://solo:1" {
			t.Fatal("single-member ring must own everything")
		}
	}
}

// TestRingOwnershipStability is the table-driven add/remove suite: when
// the member set changes by one node, only keys entering or leaving
// that node's arcs may change owner, and the moved fraction is near the
// ideal 1/n.
func TestRingOwnershipStability(t *testing.T) {
	base := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	keys := testKeys(8000)

	cases := []struct {
		name    string
		before  []string
		after   []string
		added   string // non-empty: every moved key must land here
		removed string // non-empty: every moved key must come from here
		ideal   float64
	}{
		{
			name:   "add e to 4",
			before: base,
			after:  append(append([]string{}, base...), "http://e:1"),
			added:  "http://e:1",
			ideal:  1.0 / 5,
		},
		{
			name:    "remove d from 4",
			before:  base,
			after:   base[:3],
			removed: "http://d:1",
			ideal:   1.0 / 4,
		},
		{
			name:   "add b to 1",
			before: base[:1],
			after:  base[:2],
			added:  "http://b:1",
			ideal:  1.0 / 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rb, ra := NewRing(tc.before), NewRing(tc.after)
			moved := 0
			for _, k := range keys {
				ob, oa := rb.Owner(k), ra.Owner(k)
				if ob == oa {
					continue
				}
				moved++
				if tc.added != "" && oa != tc.added {
					t.Fatalf("key moved %s -> %s, but only the new member %s may gain keys",
						ob, oa, tc.added)
				}
				if tc.removed != "" && ob != tc.removed {
					t.Fatalf("key moved %s -> %s, but only the removed member %s may lose keys",
						ob, oa, tc.removed)
				}
			}
			frac := float64(moved) / float64(len(keys))
			// 128 virtual nodes put the moved fraction within a factor
			// of ~1.6 of ideal with plenty of margin for hash noise.
			if frac < tc.ideal/1.6 || frac > tc.ideal*1.6 {
				t.Errorf("moved fraction %.3f, want near %.3f", frac, tc.ideal)
			}
		})
	}
}

// TestRingOwnersProperties drives the successor-list contract over
// random member sets and digests: the R owners are distinct live
// members, the first owner is Owner(), and R larger than the member
// count degrades to every member in successor order.
func TestRingOwnersProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(8)
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("http://m%d-%d:1", trial, i)
		}
		r := NewRing(members)
		for _, k := range testKeys(100) {
			R := 1 + rng.Intn(n+2) // deliberately up to members+2
			owners := r.Owners(k, R)
			want := R
			if want > n {
				want = n
			}
			if len(owners) != want {
				t.Fatalf("Owners(%q, %d) on %d members returned %d owners, want %d",
					k, R, n, len(owners), want)
			}
			seen := make(map[string]bool, len(owners))
			for _, o := range owners {
				if seen[o] {
					t.Fatalf("Owners(%q, %d) repeated member %s", k, R, o)
				}
				seen[o] = true
			}
			if owners[0] != r.Owner(k) {
				t.Fatalf("Owners()[0] = %s, Owner() = %s", owners[0], r.Owner(k))
			}
		}
	}
}

// TestRingOwnersStableUnderUnrelatedRemoval pins the replica-placement
// stability property: removing a member that is not in a key's owner
// list must not change that list — its vnodes are only reached after
// the successor walk already collected R distinct members.
func TestRingOwnersStableUnderUnrelatedRemoval(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	full := NewRing(members)
	const R = 2
	for _, k := range testKeys(2000) {
		owners := full.Owners(k, R)
		inList := make(map[string]bool, len(owners))
		for _, o := range owners {
			inList[o] = true
		}
		for _, victim := range members {
			if inList[victim] {
				continue
			}
			survivors := make([]string, 0, len(members)-1)
			for _, m := range members {
				if m != victim {
					survivors = append(survivors, m)
				}
			}
			after := NewRing(survivors).Owners(k, R)
			if !slices.Equal(owners, after) {
				t.Fatalf("removing non-owner %s changed Owners(%q, %d): %v -> %v",
					victim, k, R, owners, after)
			}
		}
	}
}

// TestRingOwnersDegradesToAllMembers: when R exceeds the live member
// count, every member is an owner exactly once.
func TestRingOwnersDegradesToAllMembers(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := NewRing(members)
	for _, k := range testKeys(200) {
		owners := r.Owners(k, 10)
		if len(owners) != len(members) {
			t.Fatalf("Owners(%q, 10) = %v, want all %d members", k, owners, len(members))
		}
		sorted := append([]string{}, owners...)
		sort.Strings(sorted)
		if !slices.Equal(sorted, members) {
			t.Fatalf("Owners(%q, 10) = %v is not a permutation of the member set", k, owners)
		}
	}
	if NewRing(nil).Owners("x", 3) != nil {
		t.Error("empty ring must return no owners")
	}
}

// TestRingBalance guards against gross imbalance: no member of a
// 4-member ring should own more than twice its fair share.
func TestRingBalance(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r := NewRing(members)
	counts := make(map[string]int)
	keys := testKeys(8000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	fair := len(keys) / len(members)
	for m, n := range counts {
		if n > 2*fair || n < fair/3 {
			t.Errorf("member %s owns %d of %d keys (fair share %d)", m, n, len(keys), fair)
		}
	}
}
