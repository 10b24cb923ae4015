package cluster

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/faults"
	"repro/internal/server"
)

// Chaos suite for the coordinator: injected faults at the cluster's own
// points and a worker killed mid-sweep must be absorbed by re-dispatch —
// and the answer that comes back must still be byte-identical to a healthy
// single-node run. Failover that changes results is worse than an outage.

// arm parses and enables a fault plan, disarming it when the test ends.
func arm(t *testing.T, spec string) {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatalf("fault spec %q: %v", spec, err)
	}
	faults.Enable(plan)
	t.Cleanup(faults.Disable)
}

// TestClusterDispatchFaultRedispatch: an injected failure on the first
// dispatch attempt forces a re-dispatch; the sweep completes and matches the
// single-node report byte for byte.
func TestClusterDispatchFaultRedispatch(t *testing.T) {
	req := server.EvaluateRequest{Bench: "compress", Thresholds: []float64{90, 70, 50}}
	single := newTestWorker(t)
	want := evaluateResultJSON(t, single.ts.URL, req)

	co, cts, _ := newTestCluster(t, 2, Config{})
	arm(t, PointDispatch+":error:n=1")
	got := evaluateResultJSON(t, cts.URL, req)
	if !bytes.Equal(got, want) {
		t.Errorf("sweep with dispatch fault differs from single-node run:\n got: %s\nwant: %s", got, want)
	}
	if n := co.Metrics().ShardsRedispatched.Load(); n < 1 {
		t.Errorf("shards_redispatched = %d, want >= 1 (the injected failure was not failed over)", n)
	}
}

// TestClusterNodeKillMidSweep is the headline failover scenario: one of two
// workers starts dropping every evaluate connection mid-request (what a
// SIGKILL looks like from the wire), and the sweep must still complete on
// the survivor with a byte-identical report.
func TestClusterNodeKillMidSweep(t *testing.T) {
	req := server.EvaluateRequest{Bench: "compress", Thresholds: []float64{90, 70, 50}, ILP: true}
	single := newTestWorker(t)
	want := evaluateResultJSON(t, single.ts.URL, req)

	co, cts, workers := newTestCluster(t, 2, Config{})
	workers[0].kill()
	got := evaluateResultJSON(t, cts.URL, req)
	if !bytes.Equal(got, want) {
		t.Errorf("sweep with killed node differs from single-node run:\n got: %s\nwant: %s", got, want)
	}
	if n := co.Metrics().ShardsRedispatched.Load(); n < 1 {
		t.Errorf("shards_redispatched = %d, want >= 1", n)
	}
	// The dead node must be out of the routable set.
	live := co.reg.live()
	if len(live) != 1 || live[0].id != workers[1].id {
		ids := make([]string, len(live))
		for i, n := range live {
			ids[i] = n.id
		}
		t.Errorf("live nodes after kill = %v, want [%s]", ids, workers[1].id)
	}

	// A heartbeat revives the killed node (its process may have been
	// restarted behind the same address) and traffic flows again.
	workers[0].abort.Store(false)
	if !co.reg.heartbeat(workers[0].id) {
		t.Fatalf("heartbeat for revived node %s rejected", workers[0].id)
	}
	if got := evaluateResultJSON(t, cts.URL, req); !bytes.Equal(got, want) {
		t.Errorf("sweep after node revival differs from single-node run")
	}
	if n := len(co.reg.live()); n != 2 {
		t.Errorf("live nodes after revival = %d, want 2", n)
	}
}

// TestClusterAllNodesDead: when every worker is gone the coordinator
// reports a gateway failure rather than hanging or fabricating a result.
func TestClusterAllNodesDead(t *testing.T) {
	_, cts, workers := newTestCluster(t, 2, Config{})
	for _, w := range workers {
		w.kill()
	}
	resp, _ := postJSON(t, cts.URL+"/v1/evaluate", server.EvaluateRequest{Bench: "compress", Thresholds: []float64{90, 50}})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("evaluate with all nodes dead: %d, want 502", resp.StatusCode)
	}
}

// TestClusterMergeFault: a fault injected at the merge point fails the
// request visibly (502), and the next identical request — fault exhausted —
// succeeds with the correct bytes. Partial results are never served.
func TestClusterMergeFault(t *testing.T) {
	req := server.EvaluateRequest{Bench: "compress", Thresholds: []float64{90, 50}}
	single := newTestWorker(t)
	want := evaluateResultJSON(t, single.ts.URL, req)

	_, cts, _ := newTestCluster(t, 2, Config{})
	arm(t, PointMerge+":error:n=1")
	resp, raw := postJSON(t, cts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("evaluate with merge fault: %d, want 502\n%s", resp.StatusCode, raw)
	}
	got := evaluateResultJSON(t, cts.URL, req)
	if !bytes.Equal(got, want) {
		t.Errorf("sweep after merge fault differs from single-node run:\n got: %s\nwant: %s", got, want)
	}
}
