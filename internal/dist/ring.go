package dist

import (
	"sort"
	"strconv"
)

// DefaultVNodes is the number of virtual nodes each physical node
// contributes to the ring. More vnodes smooth the key distribution;
// 64 keeps the ring small while bounding per-node load skew to a few
// percent at the cluster sizes this repo targets.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over node ids. It partitions an
// arbitrary key space (the cluster uses the canonical query key from
// serve.Key for query placement and "part:<i>" keys for data-partition
// placement) so that adding or removing one node only remaps the keys
// adjacent to its vnodes — the standard scale-out partitioning scheme of
// distributed data systems (Valduriez §4; semadb's cluster layer).
//
// Ring is not safe for concurrent mutation. The cluster treats rings
// as immutable values: a membership change builds a NEW ring from the
// new view and swaps it in atomically (memberState), so concurrent
// readers always see a complete layout. Add/Remove exist for
// construction and for tests that model churn directly.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  []string    // sorted member ids
}

type ringPoint struct {
	hash uint32
	node string
}

// NewRing builds a ring with the given nodes (vnodes <= 0 takes
// DefaultVNodes).
func NewRing(vnodes int, nodes ...string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{vnodes: vnodes}
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// Add inserts a node's vnodes into the ring (idempotent).
func (r *Ring) Add(node string) {
	for _, n := range r.nodes {
		if n == node {
			return
		}
	}
	r.nodes = append(r.nodes, node)
	sort.Strings(r.nodes)
	for i := 0; i < r.vnodes; i++ {
		h := fnv32a(node + "#" + strconv.Itoa(i))
		r.points = append(r.points, ringPoint{hash: h, node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a node's vnodes from the ring. The surviving points
// move to a FRESH slice: filtering in place (points[:0]) would scribble
// over the old backing array while a reader that grabbed the slice
// header moments earlier is still walking it — exactly the stale-client
// misrouting bug this used to cause.
func (r *Ring) Remove(node string) {
	kept := make([]ringPoint, 0, len(r.points))
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	for i, n := range r.nodes {
		if n == node {
			r.nodes = append(r.nodes[:i], r.nodes[i+1:]...)
			break
		}
	}
}

// Nodes returns the member ids in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len returns the number of member nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Digest returns a stable fingerprint of the ring's layout. Vnode
// placement is a pure function of the member set and vnode count, so
// hashing those is enough: two nodes agree on key placement iff their
// digests match, which is what the cluster introspection plane
// cross-checks to flag divergent ring views.
func (r *Ring) Digest() string {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(strconv.Itoa(r.vnodes))
	for _, n := range r.nodes {
		mix("|")
		mix(n)
	}
	return strconv.FormatUint(h, 16)
}

// Owners returns the n distinct nodes responsible for key, in ring
// order: the primary first, then the failover replicas. n is clamped to
// the member count. Every member sharing one ring computes the same
// owner list for the same key, which is what makes client-side routing,
// node-side forwarding and replica failover agree without coordination.
func (r *Ring) Owners(key string, n int) []string {
	return r.ownersAt(nil, fnv32a(key), n)
}

// queryOwners is Owners for a query's canonical key, from its
// serve.KeyHash: the ring's hash of a key finalises that same FNV-1a, so
// a query is placed without building its key as a string. The owners
// are built in buf's storage when it is large enough, so a caller's
// stack array spares the allocation.
func (r *Ring) queryOwners(buf []string, keyHash uint32, n int) []string {
	return r.ownersAt(buf, avalanche(keyHash), n)
}

// ownersAt is Owners for a key whose ring hash is h, built in buf's
// storage when it is large enough.
func (r *Ring) ownersAt(buf []string, h uint32, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	n = min(n, len(r.nodes))
	out := buf[:0]
	if cap(out) < n {
		out = make([]string, 0, n)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !containsStr(out, p.node) {
			out = append(out, p.node)
		}
	}
	return out
}

// Primary returns the first owner of key ("" on an empty ring).
func (r *Ring) Primary(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// fnv32a is the 32-bit FNV-1a hash with a murmur-style finalizer. Plain
// FNV clusters badly on short similar strings ("n0#1", "n0#2", ...),
// which skews vnode placement; the avalanche mix spreads them uniformly
// around the ring.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return avalanche(h)
}

// avalanche is the murmur3 32-bit finalizer fnv32a applies to FNV-1a.
func avalanche(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
