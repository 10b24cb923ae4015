// Package cluster implements vpcoord, the scatter-gather coordinator that
// turns N vpserve worker daemons into one profiling service. A single
// vpserve process scales to its worker pool and no further; the coordinator
// is the network layer above it:
//
//   - a node registry: workers self-register, heartbeat, and deregister the
//     moment their SIGTERM drain begins; missed heartbeats expire a node.
//   - consistent-hash routing keyed by the program fingerprint (or the
//     benchmark/input cache key), so repeat jobs land on the node that
//     already holds the recorded trace and profile image — cache affinity.
//   - scatter-gather sweeps: an EvaluateRequest.Thresholds sweep is split
//     into contiguous shards, one per live node, evaluated in parallel, and
//     the partial report.Runs are merged deterministically — the merged
//     report is byte-identical to the same sweep on a single node.
//   - failover: a dead or failing node's shards are re-dispatched to
//     survivors in ring order (the per-node clients bring internal/client's
//     retry and circuit-breaker discipline), with fault-injection points
//     (cluster.dispatch, cluster.merge) driving the chaos suite.
//
// Endpoints:
//
//	GET  /healthz               coordinator liveness
//	GET  /readyz                readiness (503 until ≥ 1 live node)
//	GET  /metrics               nodes_live, shards_dispatched, shards_redispatched,
//	                            dispatch/merge latency histograms
//	POST /cluster/v1/register   worker registration {base_url, version}
//	POST /cluster/v1/heartbeat  worker liveness refresh {node_id}
//	POST /cluster/v1/deregister worker drain notification {node_id}
//	GET  /cluster/v1/nodes      registered-node listing
//	POST /v1/evaluate           the vpserve evaluate API, sharded/routed
//	POST /v1/programs           program upload, broadcast to every live node
//
// The /v1 surface is the vpserve API, so vprun -server, vpreport -server,
// and internal/client talk to a coordinator and a single node
// interchangeably (DESIGN.md §12).
package cluster

import (
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/faults"
)

// Fault-injection points bracketing the coordinator's failure-prone
// boundaries (see package faults and DESIGN.md §9/§12).
const (
	// PointDispatch fires before a shard is sent to a node; an injected
	// error fails that dispatch attempt and drives the re-dispatch path.
	PointDispatch = "cluster.dispatch"
	// PointMerge fires before partial sweep results are merged.
	PointMerge = "cluster.merge"
)

func init() {
	faults.Register(PointDispatch, PointMerge)
}

const (
	// virtualNodes is the ring points each live node contributes.
	virtualNodes = 64
	// completedKeys bounds the completed-shard-key set the reconcile
	// handshake consults (FIFO eviction).
	completedKeys = 4096
)

// Config sizes the coordinator. Zero values take the documented defaults.
type Config struct {
	// Version is the coordinator's build version. Node registrations
	// reporting a different version are accepted but logged and counted —
	// a mixed-version fleet is how a bad rollout looks.
	Version string
	// HeartbeatTimeout expires a node that has not heartbeated (default
	// 10s). Registering nodes are told to heartbeat every third of it.
	HeartbeatTimeout time.Duration
	// RequestTimeout bounds one coordinator request end to end, re-dispatch
	// attempts included (default 120s).
	RequestTimeout time.Duration
	// StateDir, when set, persists the completed-shard-key set (the worker
	// restart reconcile handshake, DESIGN.md §13) across coordinator
	// restarts via a journal at StateDir/completed.journal. Empty keeps the
	// set in memory for the process lifetime only.
	StateDir string
	// Client is the template for per-node clients; BaseURL is overridden
	// per node and stale-result fallbacks are force-disabled. The zero
	// template defaults to one retry with fast backoff — node-level
	// failover is the coordinator's job, the client only smooths blips.
	Client client.Config
	// Logf receives registration/failover log lines (default log.Printf).
	Logf func(format string, args ...any)

	// now is a test seam; nil selects time.Now.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 10 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.Client.MaxRetries == 0 {
		c.Client.MaxRetries = 1
	}
	if c.Client.BaseBackoff == 0 {
		c.Client.BaseBackoff = 25 * time.Millisecond
	}
	if c.Client.MaxBackoff == 0 {
		c.Client.MaxBackoff = 250 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Coordinator is the cluster front end. Create with New, serve via Handler.
type Coordinator struct {
	cfg       Config
	reg       *registry
	metrics   *Metrics
	completed *completedSet
	mux       *http.ServeMux
	nextJob   atomic.Int64
}

// New builds a Coordinator. It panics if the configured state directory
// cannot be opened; daemons that want that surfaced as an error use Open.
func New(cfg Config) *Coordinator {
	co, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return co
}

// Open builds a Coordinator, replaying the completed-shard journal when
// Config.StateDir is set.
func Open(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	co := &Coordinator{cfg: cfg, metrics: &Metrics{}}
	var err error
	if co.completed, err = openCompletedSet(cfg.StateDir, completedKeys, cfg.Logf); err != nil {
		return nil, err
	}
	co.reg = newRegistry(&co.cfg)
	co.mux = http.NewServeMux()
	co.mux.HandleFunc("GET /healthz", co.handleHealthz)
	co.mux.HandleFunc("GET /readyz", co.handleReadyz)
	co.mux.HandleFunc("GET /metrics", co.handleMetrics)
	co.mux.HandleFunc("POST /cluster/v1/register", co.handleRegister)
	co.mux.HandleFunc("POST /cluster/v1/heartbeat", co.handleHeartbeat)
	co.mux.HandleFunc("POST /cluster/v1/deregister", co.handleDeregister)
	co.mux.HandleFunc("GET /cluster/v1/nodes", co.handleNodes)
	co.mux.HandleFunc("POST /v1/evaluate", co.handleEvaluate)
	co.mux.HandleFunc("POST /v1/programs", co.handleSubmitProgram)
	return co, nil
}

// Close releases the coordinator's durable state (the completed-shard
// journal). Safe on a coordinator without a state dir.
func (co *Coordinator) Close() { co.completed.close() }

// Handler returns the HTTP handler.
func (co *Coordinator) Handler() http.Handler { return co.mux }

// Metrics returns the coordinator's live metrics (for tests and embedding).
func (co *Coordinator) Metrics() *Metrics { return co.metrics }

// Register adds a worker node directly (the in-process path tests and
// embedders use; the HTTP path wraps it). It returns the node id.
func (co *Coordinator) Register(baseURL, version string) (string, error) {
	n, err := co.reg.register(baseURL, version)
	if err != nil {
		return "", err
	}
	co.metrics.NodesRegistered.Add(1)
	if co.cfg.Version != "" && version != "" && version != co.cfg.Version {
		co.metrics.VersionMismatches.Add(1)
		co.cfg.Logf("cluster: node %s (%s) registered with version %q, coordinator is %q — mixed-version fleet",
			n.id, baseURL, version, co.cfg.Version)
	} else {
		co.cfg.Logf("cluster: node %s registered: %s (version %s)", n.id, baseURL, orDev(version))
	}
	return n.id, nil
}

func orDev(v string) string {
	if v == "" {
		return "unknown"
	}
	return v
}
