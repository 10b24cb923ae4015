package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/client"
	"repro/internal/server"
)

// This file is the coordinator's HTTP surface: the cluster control plane
// (register/heartbeat/deregister/nodes) and the vpserve-compatible /v1 data
// plane, which is what lets clients target a node or a cluster with the
// same code.

// RegisterRequest is the body of POST /cluster/v1/register.
type RegisterRequest struct {
	// BaseURL is the worker's advertised root, e.g. "http://10.0.0.7:8080".
	BaseURL string `json:"base_url"`
	// Version is the worker's build version (logged; mismatches counted).
	Version string `json:"version,omitempty"`
	// Incomplete lists the shard keys (server.EvaluateRequest.ShardKey) of
	// journaled jobs this worker recovered at startup and is about to
	// re-run. The coordinator answers with the subset to abandon.
	Incomplete []string `json:"incomplete,omitempty"`
}

// RegisterResponse tells the worker its identity and heartbeat cadence.
type RegisterResponse struct {
	NodeID              string  `json:"node_id"`
	HeartbeatIntervalMS float64 `json:"heartbeat_interval_ms"`
	// Abandon is the subset of the registration's Incomplete shard keys the
	// coordinator already saw complete elsewhere (failover absorbed them
	// while the worker was down); the worker should cancel those recovered
	// jobs instead of re-running them.
	Abandon []string `json:"abandon,omitempty"`
}

// HeartbeatRequest is the body of POST /cluster/v1/heartbeat and
// /cluster/v1/deregister.
type HeartbeatRequest struct {
	NodeID string `json:"node_id"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz: the coordinator is ready when it can route work somewhere.
func (co *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if len(co.reg.live()) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no live nodes"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, co.metricsSnapshot())
}

func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id, err := co.Register(req.BaseURL, req.Version)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, RegisterResponse{
		NodeID:              id,
		HeartbeatIntervalMS: float64((co.cfg.HeartbeatTimeout / 3).Milliseconds()),
		Abandon:             co.Reconcile(id, req.Incomplete),
	})
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !co.reg.heartbeat(req.NodeID) {
		// Expired or never registered: 404 tells the agent to re-register.
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown node %q", req.NodeID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (co *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if co.reg.deregister(req.NodeID) {
		co.metrics.NodesDeregistered.Add(1)
		co.cfg.Logf("cluster: node %s deregistered (draining)", req.NodeID)
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (co *Coordinator) handleNodes(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"nodes": co.reg.snapshot()})
}

func (co *Coordinator) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req server.EvaluateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.RequestTimeout)
	defer cancel()
	jr, err := co.evaluate(ctx, req)
	if err != nil {
		co.writeEvaluateError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jr)
}

// writeEvaluateError maps dispatch failures onto the vpserve status
// vocabulary: no fleet → 503, deterministic node rejections → their own
// status, everything else (all survivors exhausted, injected merge faults)
// → 502.
func (co *Coordinator) writeEvaluateError(w http.ResponseWriter, err error) {
	if errors.Is(err, errNoNodes) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && fatalStatus(apiErr.Status) {
		writeError(w, apiErr.Status, err)
		return
	}
	writeError(w, http.StatusBadGateway, err)
}

// handleSubmitProgram broadcasts a program upload to every live node, so a
// later evaluate can be routed (and re-routed on failover) anywhere. The
// upload is content-addressed and idempotent; all live nodes must accept it.
// Nodes that join later miss the broadcast — re-submit, or use named
// benchmarks, for fleets that scale up mid-run (DESIGN.md §12).
func (co *Coordinator) handleSubmitProgram(w http.ResponseWriter, r *http.Request) {
	var req server.SubmitProgramRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	nodes := co.reg.live()
	if len(nodes) == 0 {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errNoNodes)
		return
	}
	infos := make([]*server.ProgramInfo, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			infos[i], errs[i] = n.cli.SubmitProgram(r.Context(), req)
		}(i, n)
	}
	wg.Wait()
	var firstErr error
	var info *server.ProgramInfo
	for i := range nodes {
		if errs[i] != nil && firstErr == nil {
			firstErr = fmt.Errorf("node %s: %w", nodes[i].id, errs[i])
		}
		if infos[i] != nil {
			info = infos[i]
		}
	}
	if firstErr != nil {
		var apiErr *client.APIError
		if errors.As(firstErr, &apiErr) && fatalStatus(apiErr.Status) {
			writeError(w, apiErr.Status, firstErr)
			return
		}
		writeError(w, http.StatusBadGateway, firstErr)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}
