package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func mkNodes(ids ...string) []*node {
	out := make([]*node, len(ids))
	for i, id := range ids {
		out[i] = &node{id: id, baseURL: "http://" + id + ".test"}
	}
	return out
}

// TestRingSequenceDistinct: a candidate sequence visits every node exactly
// once, primary first, and is deterministic.
func TestRingSequenceDistinct(t *testing.T) {
	nodes := mkNodes("node-1", "node-2", "node-3")
	r := buildRing(nodes, 64)
	for k := 0; k < 50; k++ {
		key := fmt.Sprintf("prog/sha256:%04d", k)
		seq := r.sequence(key)
		if len(seq) != len(nodes) {
			t.Fatalf("key %q: sequence has %d nodes, want %d", key, len(seq), len(nodes))
		}
		seen := map[*node]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("key %q: node %s appears twice", key, n.id)
			}
			seen[n] = true
		}
		if again := r.sequence(key); !reflect.DeepEqual(seq, again) {
			t.Fatalf("key %q: sequence is not deterministic", key)
		}
	}
}

// TestRingStabilityOnNodeLoss is the consistent-hashing property: removing
// one node only re-routes the keys whose primary was that node; every other
// key keeps its primary, so worker caches stay warm through churn.
func TestRingStabilityOnNodeLoss(t *testing.T) {
	nodes := mkNodes("node-1", "node-2", "node-3", "node-4")
	before := buildRing(nodes, 64)
	after := buildRing(nodes[:3], 64) // node-4 lost
	lost := nodes[3]

	moved := 0
	const keys = 200
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("bench/compress/%04d", k)
		p0 := before.sequence(key)[0]
		p1 := after.sequence(key)[0]
		if p0 == lost {
			moved++
			continue // had to move somewhere
		}
		if p0 != p1 {
			t.Fatalf("key %q: primary moved %s → %s though %s survived", key, p0.id, p1.id, p0.id)
		}
	}
	if moved == 0 || moved == keys {
		t.Fatalf("lost node owned %d/%d keys — hashing is degenerate", moved, keys)
	}
}

// TestRingBalance: with enough virtual nodes no node owns a wildly
// disproportionate share of keys.
func TestRingBalance(t *testing.T) {
	nodes := mkNodes("node-1", "node-2", "node-3")
	r := buildRing(nodes, 64)
	counts := map[*node]int{}
	const keys = 3000
	for k := 0; k < keys; k++ {
		counts[r.sequence(fmt.Sprintf("key-%05d", k))[0]]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 0.15 || share > 0.55 {
			t.Errorf("node %s owns %.0f%% of keys — want a roughly fair share", n.id, share*100)
		}
	}
}

func testRegistry(t *testing.T) (*registry, *time.Time, *sync.Mutex) {
	t.Helper()
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	cfg := Config{
		HeartbeatTimeout: 10 * time.Second,
		Logf:             t.Logf,
		now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		},
	}
	cfg = cfg.withDefaults()
	return newRegistry(&cfg), &now, &mu
}

func advance(mu *sync.Mutex, now *time.Time, d time.Duration) {
	mu.Lock()
	*now = now.Add(d)
	mu.Unlock()
}

// TestRegistryHeartbeatExpiry drives node liveness through the clock seam:
// a node that stops heartbeating is expired after the timeout and its id is
// forgotten, so a late heartbeat is rejected and forces re-registration.
func TestRegistryHeartbeatExpiry(t *testing.T) {
	r, now, mu := testRegistry(t)
	a, err := r.register("http://a.test", "v1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.register("http://b.test", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.live()); got != 2 {
		t.Fatalf("live = %d, want 2", got)
	}

	// b heartbeats, a goes silent past the timeout.
	advance(mu, now, 9*time.Second)
	if !r.heartbeat(b.id) {
		t.Fatal("heartbeat for live node rejected")
	}
	advance(mu, now, 2*time.Second) // a is now 11s silent, b 2s
	live := r.live()
	if len(live) != 1 || live[0] != b {
		t.Fatalf("live after expiry = %d nodes, want just %s", len(live), b.id)
	}
	// The expired id is gone for good; the agent must re-register.
	if r.heartbeat(a.id) {
		t.Fatal("heartbeat for expired node accepted — late heartbeats must not resurrect it")
	}
	a2, err := r.register("http://a.test", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.live()); got != 2 {
		t.Fatalf("live after re-register = %d, want 2", got)
	}
	_ = a2
}

// TestRegistryReregisterKeepsIdentity: a worker that re-registers from the
// same address keeps its node id (and so its ring position and client).
func TestRegistryReregisterKeepsIdentity(t *testing.T) {
	r, _, _ := testRegistry(t)
	a1, err := r.register("http://a.test", "v1")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.register("http://a.test", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("re-registration allocated a new node (%s → %s)", a1.id, a2.id)
	}
	if a2.version != "v2" {
		t.Fatalf("re-registration did not refresh version: %q", a2.version)
	}
}

// TestRegistryMarkDeadAndRevive: a dead node leaves the candidate sequence
// and a heartbeat brings it back.
func TestRegistryMarkDeadAndRevive(t *testing.T) {
	r, _, _ := testRegistry(t)
	a, _ := r.register("http://a.test", "")
	b, _ := r.register("http://b.test", "")

	if got := len(r.candidates("some-key")); got != 2 {
		t.Fatalf("candidates = %d, want 2", got)
	}
	r.markDead(a)
	cands := r.candidates("some-key")
	if len(cands) != 1 || cands[0] != b {
		t.Fatalf("candidates after markDead = %v, want just %s", cands, b.id)
	}
	if !r.heartbeat(a.id) {
		t.Fatal("heartbeat for dead-but-registered node rejected")
	}
	if got := len(r.candidates("some-key")); got != 2 {
		t.Fatalf("candidates after revival = %d, want 2", got)
	}
}

// TestShardThresholds: contiguous chunks, order preserved, sizes within one.
func TestShardThresholds(t *testing.T) {
	ths := []float64{90, 80, 70, 60, 50}
	for k := 1; k <= len(ths); k++ {
		chunks := shardThresholds(ths, k)
		if len(chunks) != k {
			t.Fatalf("k=%d: %d chunks", k, len(chunks))
		}
		var flat []float64
		min, max := len(ths), 0
		for _, c := range chunks {
			flat = append(flat, c...)
			if len(c) < min {
				min = len(c)
			}
			if len(c) > max {
				max = len(c)
			}
		}
		if !reflect.DeepEqual(flat, ths) {
			t.Fatalf("k=%d: concatenated chunks %v != %v", k, flat, ths)
		}
		if max-min > 1 {
			t.Fatalf("k=%d: chunk sizes range %d..%d — not balanced", k, min, max)
		}
	}
}

// TestRotate: shard i's candidate list starts at candidate i and keeps every
// survivor.
func TestRotate(t *testing.T) {
	nodes := mkNodes("node-1", "node-2", "node-3")
	got := rotate(nodes, 1)
	want := []*node{nodes[1], nodes[2], nodes[0]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotate(.., 1) wrong order")
	}
	if !reflect.DeepEqual(rotate(nodes, 3), nodes) {
		t.Fatalf("rotate by len is not identity")
	}
}
