package cluster

import (
	"hash/fnv"
	"sort"
)

// This file implements the consistent-hash ring the coordinator routes on.
// Every live node contributes virtualNodes points to the ring; a request's
// routing key (the program fingerprint, or the benchmark/input cache key —
// exactly what the worker's trace and result caches are keyed by) hashes to
// a position, and the nodes encountered walking clockwise from there form
// the candidate order: primary first, then the failover successors.
//
// The property that matters is cache affinity: repeat jobs for one program
// land on the node that already holds its recorded trace and profile image,
// so a cluster of N nodes keeps N disjoint working sets instead of N copies
// of the same one. Membership changes move only the keys adjacent to the
// departed/arrived node's points — the rest of the fleet keeps its caches
// warm.

// ringPoint is one virtual node position.
type ringPoint struct {
	hash uint64
	n    *node
}

// ring is an immutable snapshot of the hash ring over a live-node set.
// The registry rebuilds it when membership changes.
type ring struct {
	points   []ringPoint
	distinct int // physical nodes on the ring
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the 64-bit avalanche finalizer (Murmur3 fmix64). Raw FNV of
// similar strings — sequential fingerprints, "node-1#k" vs "node-2#k" —
// clusters in a narrow band of the hash space, which skews ring arcs and
// piles whole key families onto one node; the finalizer decorrelates them.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// buildRing places perNode virtual points per node, sorted by hash. Ties
// (vanishingly rare with 64-bit FNV) break by node id so the ring is
// deterministic for a given membership.
func buildRing(nodes []*node, perNode int) *ring {
	r := &ring{points: make([]ringPoint, 0, len(nodes)*perNode), distinct: len(nodes)}
	var buf [8]byte
	for _, n := range nodes {
		for i := 0; i < perNode; i++ {
			buf[0] = byte(i)
			buf[1] = byte(i >> 8)
			h := fnv.New64a()
			_, _ = h.Write([]byte(n.id))
			_, _ = h.Write([]byte{'#'})
			_, _ = h.Write(buf[:2])
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), n: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].n.id < r.points[j].n.id
	})
	return r
}

// sequence returns every distinct node in clockwise order starting at the
// key's ring position: sequence(key)[0] is the affinity primary, the rest
// are the failover successors in deterministic order.
func (r *ring) sequence(key string) []*node {
	if len(r.points) == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= hash64(key)
	})
	seen := make(map[*node]bool, r.distinct)
	out := make([]*node, 0, r.distinct)
	for i := 0; i < len(r.points) && len(seen) < r.distinct; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.n] {
			seen[p.n] = true
			out = append(out, p.n)
		}
	}
	return out
}
