package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/workload"
)

// This file implements the scatter-gather core: routing-key computation,
// shard planning, per-shard dispatch with failover, and the deterministic
// merge.

// routingKey maps a request to the key the ring hashes. Submitted programs
// are addressed by fingerprint already; named benchmarks use the same
// (benchmark, input) cache key the worker's own build cache uses — both are
// exactly what the node-side trace/image caches key on, which is what makes
// ring affinity equal cache affinity.
func routingKey(req *server.EvaluateRequest) string {
	if req.Program != "" {
		return "prog/" + req.Program
	}
	in := workload.EvaluationInput()
	if req.Seed != 0 {
		in = workload.Input{Seed: req.Seed, Scale: req.Scale}
	}
	return workload.BenchKey(req.Bench, in)
}

// errNoNodes is mapped to 503: the cluster has no live workers.
var errNoNodes = errors.New("cluster: no live worker nodes")

// errAllNodesFailed is mapped to 502 after every candidate was tried.
type errAllNodesFailed struct {
	attempts int
	last     error
}

func (e *errAllNodesFailed) Error() string {
	return fmt.Sprintf("cluster: all %d dispatch attempts failed, last: %v", e.attempts, e.last)
}
func (e *errAllNodesFailed) Unwrap() error { return e.last }

// fatalStatus reports whether a node's HTTP status is deterministic — the
// request itself is at fault, so re-dispatching to a survivor cannot
// succeed and the coordinator must propagate instead of retrying.
func fatalStatus(status int) bool {
	switch status {
	case http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity:
		return true
	}
	return false
}

// shardThresholds splits a sweep into k contiguous chunks, earlier chunks
// one longer when the division is uneven. Contiguity is what keeps the
// merge a simple order-preserving concatenation.
func shardThresholds(ths []float64, k int) [][]float64 {
	out := make([][]float64, 0, k)
	base, rem := len(ths)/k, len(ths)%k
	at := 0
	for i := 0; i < k; i++ {
		n := base
		if i < rem {
			n++
		}
		out = append(out, ths[at:at+n])
		at += n
	}
	return out
}

// tryNode performs one dispatch attempt of req against n, through the
// cluster.dispatch fault point and the node's retrying client. Transport
// failures mark the node dead (a heartbeat revives it).
func (co *Coordinator) tryNode(ctx context.Context, n *node, req server.EvaluateRequest) (server.JobResponse, error) {
	if err := faults.Inject(PointDispatch); err != nil {
		return server.JobResponse{}, err
	}
	co.metrics.ShardsDispatched.Add(1)
	n.inflight.Add(1)
	t0 := time.Now()
	res, err := n.cli.Evaluate(ctx, req)
	co.metrics.dispatch.Observe(time.Since(t0))
	n.inflight.Add(-1)
	if err != nil {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) && ctx.Err() == nil {
			// Transport-level failure or an exhausted breaker: the node is
			// unreachable. Take it out of the ring until it proves liveness.
			// (A cancelled context — the request timed out — is not the
			// node's fault.)
			co.reg.markDead(n)
			co.cfg.Logf("cluster: node %s (%s) unreachable, marked dead: %v", n.id, n.baseURL, err)
		}
		return server.JobResponse{}, err
	}
	return res.JobResponse, nil
}

// dispatchShard runs one shard over the candidate nodes in order until a
// node succeeds: candidate 0 is the affinity choice, the rest absorb
// failover.
func (co *Coordinator) dispatchShard(ctx context.Context, cands []*node, req server.EvaluateRequest) (server.JobResponse, error) {
	var lastErr error
	for i, n := range cands {
		if i > 0 {
			co.metrics.ShardsRedispatched.Add(1)
		}
		jr, err := co.tryNode(ctx, n, req)
		if err == nil {
			return jr, nil
		}
		lastErr = err
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && fatalStatus(apiErr.Status) {
			// Deterministic rejection — every survivor would say the same.
			return server.JobResponse{}, err
		}
		if ctx.Err() != nil {
			return server.JobResponse{}, lastErr
		}
	}
	return server.JobResponse{}, &errAllNodesFailed{attempts: len(cands), last: lastErr}
}

// rotate returns cands rotated left by i, so shard i prefers the i-th ring
// candidate and fails over around the ring from there — shards spread over
// the fleet while every shard retains the full survivor list.
func rotate(cands []*node, i int) []*node {
	i %= len(cands)
	out := make([]*node, 0, len(cands))
	out = append(out, cands[i:]...)
	out = append(out, cands[:i]...)
	return out
}

// evaluate is the coordinator's evaluate entry: route single requests to
// the ring primary (failing over in ring order), scatter sweep requests
// across the live fleet and gather the deterministic merge.
func (co *Coordinator) evaluate(ctx context.Context, req server.EvaluateRequest) (server.JobResponse, error) {
	cands := co.reg.candidates(routingKey(&req))
	if len(cands) == 0 {
		return server.JobResponse{}, errNoNodes
	}
	shardable := len(req.Thresholds) >= 2 && len(cands) >= 2
	if !shardable {
		co.metrics.RequestsProxied.Add(1)
		jr, err := co.dispatchShard(ctx, cands, req)
		if err == nil {
			co.completed.record(req.ShardKey())
		}
		return jr, err
	}

	k := min(len(cands), len(req.Thresholds))
	chunks := shardThresholds(req.Thresholds, k)
	co.metrics.SweepsSharded.Add(1)

	parts := make([]*report.Run, k)
	hits := make([]bool, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shardReq := req
			shardReq.Thresholds = chunks[i]
			jr, err := co.dispatchShard(ctx, rotate(cands, i), shardReq)
			if err != nil {
				errs[i] = err
				return
			}
			if jr.Result == nil {
				errs[i] = fmt.Errorf("cluster: shard %d returned no result", i)
				return
			}
			parts[i] = jr.Result
			hits[i] = jr.CacheHit
			// The node journaled exactly shardReq; remember its key so the
			// node can skip the re-run if it crashed after completing it.
			co.completed.record(shardReq.ShardKey())
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return server.JobResponse{}, err
		}
	}

	if err := faults.Inject(PointMerge); err != nil {
		return server.JobResponse{}, err
	}
	t0 := time.Now()
	// Normalize ReplayPassesSaved to the single-node figure (one pass over
	// the trace would have served every configuration), so the merged report
	// is byte-identical to an unsharded run; the distributed reality is in
	// the coordinator's own metrics.
	saved := int64(len(req.Thresholds) - 1)
	if req.ILP {
		saved++
	}
	merged, err := report.MergeSweep(parts, req.Thresholds, saved)
	co.metrics.merge.Observe(time.Since(t0))
	if err != nil {
		return server.JobResponse{}, err
	}
	allHit := true
	for _, h := range hits {
		allHit = allHit && h
	}
	return server.JobResponse{
		ID:       fmt.Sprintf("coord-%d", co.nextJob.Add(1)),
		Status:   server.StatusDone,
		CacheHit: allHit,
		Result:   merged,
	}, nil
}
