package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// This file implements the coordinator's node registry: the authoritative
// view of which vpserve workers exist, which are live, and how loaded each
// one is. Nodes self-register (vpserve -coordinator), heartbeat on the
// cadence the coordinator hands back, and deregister the moment their
// SIGTERM drain begins; a node that misses heartbeats past the liveness
// timeout is expired lazily the next time the live set is consulted, so no
// janitor goroutine is needed and tests drive expiry through the clock seam.

// node is one registered vpserve worker.
type node struct {
	id      string
	baseURL string
	version string
	// cli is the coordinator's retrying/breaker-equipped client for this
	// node (stale fallbacks disabled — a stale result would mask a failover).
	cli *client.Client

	// inflight counts coordinator-dispatched requests currently executing on
	// the node; /metrics reports it.
	inflight atomic.Int64

	mu       sync.Mutex
	lastBeat time.Time
	dead     bool // marked on transport failure; a heartbeat revives it
}

func (n *node) beat(now time.Time) {
	n.mu.Lock()
	n.lastBeat = now
	n.dead = false
	n.mu.Unlock()
}

// liveAt reports whether the node is routable: not marked dead and
// heartbeated within the timeout.
func (n *node) liveAt(now time.Time, timeout time.Duration) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.dead && now.Sub(n.lastBeat) <= timeout
}

// registry is the mutable node set plus a cached ring rebuilt on epoch
// bumps (register, deregister, death, expiry).
type registry struct {
	cfg *Config

	mu     sync.Mutex
	nodes  map[string]*node // by id
	byURL  map[string]*node
	nextID int64

	epoch     int64 // bumped on any membership change
	ringEpoch int64
	ringCache *ring
}

func newRegistry(cfg *Config) *registry {
	return &registry{
		cfg:   cfg,
		nodes: make(map[string]*node),
		byURL: make(map[string]*node),
	}
}

// register adds (or refreshes) a node by base URL and returns it. A
// re-registration of a known URL keeps the node's identity and caches its
// existing client — workers that restart fast keep their ring position.
func (r *registry) register(baseURL, version string) (*node, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("cluster: register: base_url is required")
	}
	now := r.cfg.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.byURL[baseURL]; ok {
		n.mu.Lock()
		n.version = version
		n.lastBeat = now
		n.dead = false
		n.mu.Unlock()
		r.epoch++
		return n, nil
	}
	r.nextID++
	ccfg := r.cfg.Client
	ccfg.BaseURL = baseURL
	ccfg.StaleCacheSize = -1 // determinism over availability inside the cluster
	n := &node{
		id:       fmt.Sprintf("node-%d", r.nextID),
		baseURL:  baseURL,
		version:  version,
		cli:      client.New(ccfg),
		lastBeat: now,
	}
	r.nodes[n.id] = n
	r.byURL[baseURL] = n
	r.epoch++
	return n, nil
}

// heartbeat refreshes a node's liveness. Unknown ids (expired or never
// registered) report false so the agent re-registers.
func (r *registry) heartbeat(id string) bool {
	r.mu.Lock()
	n, ok := r.nodes[id]
	r.mu.Unlock()
	if !ok {
		return false
	}
	wasDead := func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.dead
	}()
	n.beat(r.cfg.now())
	if wasDead {
		r.bumpEpoch()
	}
	return true
}

// deregister removes a node (drain beginning, or operator action).
func (r *registry) deregister(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[id]
	if !ok {
		return false
	}
	delete(r.nodes, id)
	delete(r.byURL, n.baseURL)
	r.epoch++
	return true
}

// markDead takes a node out of the routable set after a transport-level
// dispatch failure (connection refused, mid-request EOF). A later heartbeat
// or re-registration revives it.
func (r *registry) markDead(n *node) {
	n.mu.Lock()
	already := n.dead
	n.dead = true
	n.mu.Unlock()
	if !already {
		r.bumpEpoch()
	}
}

func (r *registry) bumpEpoch() {
	r.mu.Lock()
	r.epoch++
	r.mu.Unlock()
}

// live returns the routable nodes, expiring the stale ones as a side effect.
func (r *registry) live() []*node {
	now := r.cfg.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*node, 0, len(r.nodes))
	for id, n := range r.nodes {
		if !n.liveAt(now, r.cfg.HeartbeatTimeout) {
			if expired := func() bool {
				n.mu.Lock()
				defer n.mu.Unlock()
				return now.Sub(n.lastBeat) > r.cfg.HeartbeatTimeout
			}(); expired {
				// Missed heartbeats past the deadline: drop the registration
				// entirely so the id cannot be revived by a late heartbeat.
				delete(r.nodes, id)
				delete(r.byURL, n.baseURL)
				r.epoch++
			}
			continue
		}
		out = append(out, n)
	}
	return out
}

// candidates returns the live nodes in ring order for key: affinity primary
// first, then failover successors. The ring is rebuilt only when membership
// changed since the cached build.
func (r *registry) candidates(key string) []*node {
	nodes := r.live()
	if len(nodes) == 0 {
		return nil
	}
	r.mu.Lock()
	if r.ringCache == nil || r.ringEpoch != r.epoch {
		r.ringCache = buildRing(nodes, virtualNodes)
		r.ringEpoch = r.epoch
	}
	ring := r.ringCache
	r.mu.Unlock()
	seq := ring.sequence(key)
	// The cached ring may momentarily include nodes that just died; filter
	// against the live set computed above.
	liveSet := make(map[*node]bool, len(nodes))
	for _, n := range nodes {
		liveSet[n] = true
	}
	out := seq[:0:0]
	for _, n := range seq {
		if liveSet[n] {
			out = append(out, n)
		}
	}
	return out
}

// snapshot lists every registered node for /metrics and /cluster/v1/nodes.
func (r *registry) snapshot() []NodeInfo {
	now := r.cfg.now()
	r.mu.Lock()
	nodes := make([]*node, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n)
	}
	r.mu.Unlock()
	out := make([]NodeInfo, 0, len(nodes))
	for _, n := range nodes {
		n.mu.Lock()
		info := NodeInfo{
			ID:            n.id,
			BaseURL:       n.baseURL,
			Version:       n.version,
			Live:          !n.dead && now.Sub(n.lastBeat) <= r.cfg.HeartbeatTimeout,
			Inflight:      n.inflight.Load(),
			LastBeatAgeMS: float64(now.Sub(n.lastBeat)) / float64(time.Millisecond),
		}
		n.mu.Unlock()
		out = append(out, info)
	}
	sortNodeInfos(out)
	return out
}
