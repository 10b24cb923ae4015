package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// testWorker is one in-process vpserve node fronted by httptest. Its
// handler can be "killed": with abort set, every /v1/evaluate connection is
// dropped mid-request (http.ErrAbortHandler), which is what a SIGKILLed
// worker looks like from the coordinator's side of the socket.
type testWorker struct {
	srv *server.Server
	ts  *httptest.Server
	id  string

	abort atomic.Bool
}

func (tw *testWorker) kill() { tw.abort.Store(true) }

func newTestWorker(t testing.TB) *testWorker {
	t.Helper()
	tw := &testWorker{}
	tw.srv = server.New(server.Config{Workers: 2, RequestTimeout: 2 * time.Minute})
	h := tw.srv.Handler()
	tw.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tw.abort.Load() && r.URL.Path == "/v1/evaluate" {
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		tw.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := tw.srv.Shutdown(ctx); err != nil {
			t.Errorf("worker shutdown: %v", err)
		}
	})
	return tw
}

// newTestCluster starts n workers and a coordinator with all of them
// registered.
func newTestCluster(t testing.TB, n int, cfg Config) (*Coordinator, *httptest.Server, []*testWorker) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	co := New(cfg)
	cts := httptest.NewServer(co.Handler())
	t.Cleanup(cts.Close)
	workers := make([]*testWorker, n)
	for i := range workers {
		workers[i] = newTestWorker(t)
		id, err := co.Register(workers[i].ts.URL, "test")
		if err != nil {
			t.Fatalf("register worker %d: %v", i, err)
		}
		workers[i].id = id
	}
	return co, cts, workers
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeJob(t testing.TB, raw []byte) server.JobResponse {
	t.Helper()
	var jr server.JobResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("decode job response: %v\n%s", err, raw)
	}
	return jr
}

// evaluateResultJSON runs req against url and returns the canonical JSON of
// the result run — the byte-identity currency of the determinism tests.
func evaluateResultJSON(t testing.TB, url string, req server.EvaluateRequest) []byte {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate: %d\n%s", resp.StatusCode, raw)
	}
	jr := decodeJob(t, raw)
	if jr.Result == nil {
		t.Fatalf("evaluate returned no result: %s", raw)
	}
	out, err := json.Marshal(jr.Result)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterShardedSweepDeterminism is the tentpole contract: a threshold
// sweep scattered over two worker nodes and gathered by the coordinator
// must produce a report byte-identical to the same sweep on one standalone
// node — with and without the ILP leg.
func TestClusterShardedSweepDeterminism(t *testing.T) {
	ths := []float64{90, 70, 50}
	for _, tc := range []struct {
		name string
		ilp  bool
	}{
		{name: "plain", ilp: false},
		{name: "ilp", ilp: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := server.EvaluateRequest{Bench: "compress", Thresholds: ths, ILP: tc.ilp}

			single := newTestWorker(t)
			want := evaluateResultJSON(t, single.ts.URL, req)

			co, cts, _ := newTestCluster(t, 2, Config{})
			got := evaluateResultJSON(t, cts.URL, req)

			if !bytes.Equal(got, want) {
				t.Errorf("merged sweep differs from single-node run:\n got: %s\nwant: %s", got, want)
			}
			if n := co.Metrics().SweepsSharded.Load(); n != 1 {
				t.Errorf("sweeps_sharded = %d, want 1", n)
			}
			if n := co.Metrics().ShardsDispatched.Load(); n < 2 {
				t.Errorf("shards_dispatched = %d, want >= 2 (sweep did not fan out)", n)
			}
		})
	}
}

// TestClusterProxySingleRequest: a non-sweep request is routed whole to the
// affinity node and the response matches a direct node call byte for byte.
func TestClusterProxySingleRequest(t *testing.T) {
	req := server.EvaluateRequest{Bench: "compress", Classifier: "profile", Threshold: 80}

	single := newTestWorker(t)
	want := evaluateResultJSON(t, single.ts.URL, req)

	co, cts, _ := newTestCluster(t, 2, Config{})
	got := evaluateResultJSON(t, cts.URL, req)
	if !bytes.Equal(got, want) {
		t.Errorf("proxied run differs from direct run:\n got: %s\nwant: %s", got, want)
	}
	if n := co.Metrics().RequestsProxied.Load(); n != 1 {
		t.Errorf("requests_proxied = %d, want 1", n)
	}
	if n := co.Metrics().SweepsSharded.Load(); n != 0 {
		t.Errorf("sweeps_sharded = %d, want 0", n)
	}
}

// TestClusterRoutingAffinity: repeated requests for the same key hit the
// same node (its result cache), so the second coordinator response is a
// cache hit.
func TestClusterRoutingAffinity(t *testing.T) {
	_, cts, _ := newTestCluster(t, 3, Config{})
	req := server.EvaluateRequest{Bench: "li", Classifier: "profile", Threshold: 80}

	resp, raw := postJSON(t, cts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first evaluate: %d\n%s", resp.StatusCode, raw)
	}
	if decodeJob(t, raw).CacheHit {
		t.Fatal("first evaluate unexpectedly hit a cache")
	}
	resp, raw = postJSON(t, cts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second evaluate: %d\n%s", resp.StatusCode, raw)
	}
	if !decodeJob(t, raw).CacheHit {
		t.Error("second evaluate missed the node result cache — ring affinity is not stable")
	}
}

// TestClusterControlPlane drives register/heartbeat/deregister over HTTP the
// way a vpserve agent does.
func TestClusterControlPlane(t *testing.T) {
	co := New(Config{Version: "v1", Logf: t.Logf})
	cts := httptest.NewServer(co.Handler())
	defer cts.Close()

	// Empty cluster: ready must fail, evaluate must 503.
	if resp, _ := postJSON(t, cts.URL+"/v1/evaluate", server.EvaluateRequest{Bench: "compress"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("evaluate with no nodes: %d, want 503", resp.StatusCode)
	}
	resp, err := http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no nodes: %d, want 503", resp.StatusCode)
	}

	// Register a (fake) node over HTTP; version differs from the coordinator's.
	var reg RegisterResponse
	rresp, raw := postJSON(t, cts.URL+"/cluster/v1/register", RegisterRequest{BaseURL: "http://node-a.test", Version: "v2"})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d\n%s", rresp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.NodeID == "" || reg.HeartbeatIntervalMS <= 0 {
		t.Fatalf("register response incomplete: %+v", reg)
	}
	if n := co.Metrics().VersionMismatches.Load(); n != 1 {
		t.Errorf("version_mismatches = %d, want 1", n)
	}

	resp, err = http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with one node: %d, want 200", resp.StatusCode)
	}

	// Heartbeat for the known id succeeds; an unknown id is told to
	// re-register with a 404.
	if hresp, _ := postJSON(t, cts.URL+"/cluster/v1/heartbeat", HeartbeatRequest{NodeID: reg.NodeID}); hresp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: %d", hresp.StatusCode)
	}
	if hresp, _ := postJSON(t, cts.URL+"/cluster/v1/heartbeat", HeartbeatRequest{NodeID: "node-999"}); hresp.StatusCode != http.StatusNotFound {
		t.Fatalf("heartbeat unknown id: %d, want 404", hresp.StatusCode)
	}

	// The node listing shows the registration.
	var nodes struct {
		Nodes []NodeInfo `json:"nodes"`
	}
	nresp, err := http.Get(cts.URL + "/cluster/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(nresp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if len(nodes.Nodes) != 1 || nodes.Nodes[0].ID != reg.NodeID || !nodes.Nodes[0].Live {
		t.Fatalf("node listing = %+v, want one live %s", nodes.Nodes, reg.NodeID)
	}

	// Deregister empties the cluster again.
	if dresp, _ := postJSON(t, cts.URL+"/cluster/v1/deregister", HeartbeatRequest{NodeID: reg.NodeID}); dresp.StatusCode != http.StatusOK {
		t.Fatalf("deregister: %d", dresp.StatusCode)
	}
	resp, err = http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after deregister: %d, want 503", resp.StatusCode)
	}
}

// TestClusterMetricsEndpoint checks the /metrics shape after a sharded sweep
// and a single proxied request, including the fixed-zero hedges_fired and
// spills_routed fields the benchmark harness still decodes.
func TestClusterMetricsEndpoint(t *testing.T) {
	_, cts, _ := newTestCluster(t, 2, Config{})
	evaluateResultJSON(t, cts.URL, server.EvaluateRequest{Bench: "compress", Thresholds: []float64{90, 50}})
	evaluateResultJSON(t, cts.URL, server.EvaluateRequest{Bench: "compress", Classifier: "profile", Threshold: 80})

	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hedges_fired", "spills_routed"} {
		if v, ok := fields[name]; !ok || string(v) != "0" {
			t.Errorf("/metrics %s = %s (present %v), want 0", name, v, ok)
		}
	}
	if snap.RequestsProxied != 1 {
		t.Errorf("requests_proxied = %d, want 1", snap.RequestsProxied)
	}
	if snap.NodesLive != 2 {
		t.Errorf("nodes_live = %d, want 2", snap.NodesLive)
	}
	if snap.SweepsSharded != 1 || snap.ShardsDispatched < 2 {
		t.Errorf("sweep counters off: %+v", snap)
	}
	if snap.Stages["dispatch"].Count < 2 {
		t.Errorf("dispatch histogram count = %d, want >= 2", snap.Stages["dispatch"].Count)
	}
	if snap.Stages["merge"].Count != 1 {
		t.Errorf("merge histogram count = %d, want 1", snap.Stages["merge"].Count)
	}
	if len(snap.Nodes) != 2 {
		t.Errorf("metrics lists %d nodes, want 2", len(snap.Nodes))
	}
}

// TestClusterProgramUploadBroadcast: an uploaded program lands on every
// node, so a sweep for it can shard across the fleet.
func TestClusterProgramUploadBroadcast(t *testing.T) {
	prog := server.SubmitProgramRequest{Name: "bcast", Source: "addi r1, r0, 7\naddi r2, r1, 8\nhalt\n"}

	single := newTestWorker(t)
	presp, praw := postJSON(t, single.ts.URL+"/v1/programs", prog)
	if presp.StatusCode != http.StatusCreated {
		t.Fatalf("direct upload: %d\n%s", presp.StatusCode, praw)
	}
	var pinfo server.ProgramInfo
	if err := json.Unmarshal(praw, &pinfo); err != nil {
		t.Fatal(err)
	}
	req := server.EvaluateRequest{Program: pinfo.ID, Thresholds: []float64{90, 50}}
	want := evaluateResultJSON(t, single.ts.URL, req)

	co, cts, _ := newTestCluster(t, 2, Config{})
	bresp, braw := postJSON(t, cts.URL+"/v1/programs", prog)
	if bresp.StatusCode != http.StatusCreated {
		t.Fatalf("broadcast upload: %d\n%s", bresp.StatusCode, braw)
	}
	var binfo server.ProgramInfo
	if err := json.Unmarshal(braw, &binfo); err != nil {
		t.Fatal(err)
	}
	if binfo.ID != pinfo.ID {
		t.Fatalf("broadcast program id %q != direct id %q (content addressing broke)", binfo.ID, pinfo.ID)
	}
	got := evaluateResultJSON(t, cts.URL, req)
	if !bytes.Equal(got, want) {
		t.Errorf("uploaded-program sweep differs from single node:\n got: %s\nwant: %s", got, want)
	}
	if n := co.Metrics().SweepsSharded.Load(); n != 1 {
		t.Errorf("sweeps_sharded = %d, want 1 (upload sweep did not shard)", n)
	}
}

// TestClusterFatalStatusPropagates: a deterministic node rejection (unknown
// benchmark) must come straight back with the node's status — not burn
// failover attempts on survivors that would reject it identically.
func TestClusterFatalStatusPropagates(t *testing.T) {
	single := newTestWorker(t)
	req := server.EvaluateRequest{Bench: "no-such-bench", Threshold: 80}
	dresp, _ := postJSON(t, single.ts.URL+"/v1/evaluate", req)

	co, cts, _ := newTestCluster(t, 2, Config{})
	cresp, craw := postJSON(t, cts.URL+"/v1/evaluate", req)
	if cresp.StatusCode != dresp.StatusCode {
		t.Fatalf("coordinator status %d, node status %d\n%s", cresp.StatusCode, dresp.StatusCode, craw)
	}
	if n := co.Metrics().ShardsRedispatched.Load(); n != 0 {
		t.Errorf("shards_redispatched = %d, want 0 for a fatal rejection", n)
	}
}
