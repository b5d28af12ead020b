package peer

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultReplicas is the number of virtual nodes each member contributes
// to the ring. 128 points per node keeps the ownership split within a
// few percent of even for small static clusters while the ring stays a
// few KB.
const DefaultReplicas = 128

// Ring is a consistent-hash ring over a static member list. Every
// member contributes DefaultReplicas virtual points; a key is owned by the
// member whose point follows the key's hash clockwise. Adding or
// removing one member therefore moves only the keys that member owned
// (or now owns) — the rest of the fleet's warm entries stay put.
//
// Membership is value state: a Ring is immutable after NewRing, so
// lookups need no locking.
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given members (duplicates are
// dropped; order does not matter — two instances configured with the
// same member set agree on every owner). An empty member list yields a
// ring that owns nothing.
func NewRing(members []string) *Ring {
	seen := make(map[string]bool, len(members))
	nodes := make([]string, 0, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			nodes = append(nodes, m)
		}
	}
	sort.Strings(nodes)
	r := &Ring{nodes: nodes, points: make([]ringPoint, 0, len(nodes)*DefaultReplicas)}
	for ni, n := range nodes {
		for i := 0; i < DefaultReplicas; i++ {
			r.points = append(r.points, ringPoint{ringHash(n + "#" + strconv.Itoa(i)), ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Ties (vanishingly rare) break deterministically by node order
		// so every instance still agrees.
		return a.node < b.node
	})
	return r
}

// Owner returns the member that owns key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns the key's successor list: the first n distinct members
// whose points follow the key's hash clockwise, vnodes of
// already-chosen members skipped. Owners(key, 1)[0] is Owner(key), and
// removing a member that is not in the list never changes it — its
// points are only reached after the list is already full. n larger than
// the member count degrades gracefully to every member, in successor
// order. n <= 0 is treated as 1.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 {
		n = 1
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0 // wrap: the lowest point owns the top arc
	}
	owners := make([]string, 0, n)
	chosen := make([]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if chosen[p.node] {
			continue
		}
		chosen[p.node] = true
		owners = append(owners, r.nodes[p.node])
	}
	return owners
}

// Members returns the deduplicated, sorted member list.
func (r *Ring) Members() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// ringHash maps a string to a point on the ring. SHA-256 (truncated to
// 64 bits) rather than a fast non-cryptographic hash: ring placement
// must be identical on every instance forever, so it is pinned to a
// primitive whose output can never drift between Go releases.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
