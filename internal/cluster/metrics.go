package cluster

import (
	"sort"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/server"
)

// Metrics aggregates the coordinator's counters and histograms. The
// histogram type is shared with the worker daemon so one dashboard reads
// both layers in the same shape.
type Metrics struct {
	NodesRegistered   atomic.Int64 // registrations accepted (incl. refreshes)
	NodesDeregistered atomic.Int64
	VersionMismatches atomic.Int64 // registrations whose version differed from the coordinator's

	RequestsProxied    atomic.Int64 // single-node transparent proxies
	SweepsSharded      atomic.Int64 // sweeps split across ≥ 2 nodes
	ShardsDispatched   atomic.Int64 // shard dispatch attempts sent to a node
	ShardsRedispatched atomic.Int64 // shard attempts re-sent after a node failure
	ShardsReconciled   atomic.Int64 // recovered shards a re-registering node was told to abandon

	dispatch server.Histogram // one shard dispatch round trip
	merge    server.Histogram // scatter-gather merge latency
}

// NodeInfo is one registered node as reported by /metrics and
// /cluster/v1/nodes.
type NodeInfo struct {
	ID            string  `json:"id"`
	BaseURL       string  `json:"base_url"`
	Version       string  `json:"version,omitempty"`
	Live          bool    `json:"live"`
	Inflight      int64   `json:"inflight"`
	LastBeatAgeMS float64 `json:"last_beat_age_ms"`
}

func sortNodeInfos(infos []NodeInfo) {
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
}

// MetricsSnapshot is the coordinator's /metrics response body.
type MetricsSnapshot struct {
	NodesLive       int        `json:"nodes_live"`
	NodesRegistered int64      `json:"nodes_registered"`
	Nodes           []NodeInfo `json:"nodes,omitempty"`

	VersionMismatches int64 `json:"version_mismatches"`

	RequestsProxied    int64 `json:"requests_proxied"`
	SweepsSharded      int64 `json:"sweeps_sharded"`
	ShardsDispatched   int64 `json:"shards_dispatched"`
	ShardsRedispatched int64 `json:"shards_redispatched"`
	// HedgesFired and SpillsRouted are always 0: the coordinator no longer
	// hedges shards or spills past a loaded primary. The fields stay so the
	// benchmark harness, which decodes them, keeps working.
	HedgesFired      int64 `json:"hedges_fired"`
	SpillsRouted     int64 `json:"spills_routed"`
	ShardsReconciled int64 `json:"shards_reconciled"`
	CompletedKeys    int   `json:"completed_keys"`

	FaultsInjected int64                        `json:"faults_injected"`
	FaultPoints    map[string]faults.PointStats `json:"fault_points,omitempty"`

	Stages map[string]server.HistogramSnapshot `json:"stages"`
}

func (co *Coordinator) metricsSnapshot() MetricsSnapshot {
	infos := co.reg.snapshot()
	live := 0
	for _, n := range infos {
		if n.Live {
			live++
		}
	}
	return MetricsSnapshot{
		NodesLive:          live,
		NodesRegistered:    co.metrics.NodesRegistered.Load(),
		Nodes:              infos,
		VersionMismatches:  co.metrics.VersionMismatches.Load(),
		RequestsProxied:    co.metrics.RequestsProxied.Load(),
		SweepsSharded:      co.metrics.SweepsSharded.Load(),
		ShardsDispatched:   co.metrics.ShardsDispatched.Load(),
		ShardsRedispatched: co.metrics.ShardsRedispatched.Load(),
		ShardsReconciled:   co.metrics.ShardsReconciled.Load(),
		CompletedKeys:      co.completed.size(),
		FaultsInjected:     int64(faults.Fired()),
		FaultPoints:        faults.Snapshot(),
		Stages: map[string]server.HistogramSnapshot{
			"dispatch": co.metrics.dispatch.Snapshot(),
			"merge":    co.metrics.merge.Snapshot(),
		},
	}
}
