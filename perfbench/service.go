package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/workload"
)

// verifyN is how many leading sweep requests are hashed into the printed
// digest and, on cluster-sweep, re-evaluated on a single node. The request
// stream is a function of the seed alone, so serve-sweep and cluster-sweep
// print the same digest for the same seed.
const verifyN = 8

func discard(string, ...any) {}

// node is one in-process vpserve daemon behind a loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// serve starts h on a loopback listener.
func serve(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	return hs, "http://" + ln.Addr().String(), done, nil
}

func startNode() (*node, error) {
	srv := server.New(server.Config{Logf: discard})
	hs, url, done, err := serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &node{srv: srv, hs: hs, url: url, done: done}, nil
}

func (n *node) close() {
	_ = n.hs.Close()
	<-n.done
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
}

// client is one closed-loop caller with a single connection.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// reply is a decoded /v1/evaluate response.
type reply struct {
	status   int
	size     int
	CacheHit bool            `json:"cache_hit"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

func (c *client) evaluate(url string, body []byte) (*reply, error) {
	resp, err := c.hc.Post(url+"/v1/evaluate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	r := &reply{status: resp.StatusCode, size: len(data)}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("decode reply: %w", err)
	}
	return r, nil
}

func (c *client) getJSON(url string, v any) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// loop runs clients() closed-loop callers for d. Each calls op with its
// client index and the next request index, and op reports whether the
// reply was correct. Rounds are the wall time of every r completions.
func loop(d time.Duration, tr *tracer, next *atomic.Int64, r int, op func(c int, i int64) (bool, error)) *sample {
	n := clients()
	lat := make([][]time.Duration, n)
	ends := make([][]time.Duration, n)
	failed := make([]int64, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := next.Add(1) - 1
				t0 := time.Now()
				ok, err := op(c, i)
				t1 := time.Now()
				if err != nil || !ok {
					failed[c]++
					if err != nil {
						fmt.Fprintf(os.Stderr, "request %d: %v\n", i, err)
					}
				}
				lat[c] = append(lat[c], t1.Sub(t0))
				ends[c] = append(ends[c], t1.Sub(start))
				if tr != nil {
					tr.add("client.evaluate", -1, i, t0, t1)
				}
			}
		}(c)
	}
	wg.Wait()
	s := &sample{}
	var all []time.Duration
	for c := 0; c < n; c++ {
		s.lat = append(s.lat, lat[c]...)
		all = append(all, ends[c]...)
		s.failed += failed[c]
	}
	s.ops = int64(len(s.lat))
	sortDurations(all)
	s.elapsed = all[len(all)-1]
	var prev time.Duration
	for k := r - 1; k < len(all); k += r {
		s.rounds = append(s.rounds, all[k]-prev)
		prev = all[k]
	}
	if len(s.rounds) == 0 {
		s.rounds = []time.Duration{s.elapsed}
	}
	return s
}

// ---------------------------------------------------------------- serve-hot

// hotEnv serves a fixed key set that set-up primed, so every measured
// request is a result-cache hit.
type hotEnv struct {
	n      *node
	bodies [][]byte
	want   []json.RawMessage
	rngs   []*rand.Rand
	cls    []*client
}

// hotKeys is each primary benchmark under the FSM baseline, the profile
// classifier at 90% and the five-threshold profile sweep with ILP timing.
func hotKeys() []server.EvaluateRequest {
	var reqs []server.EvaluateRequest
	for _, b := range workload.Names() {
		reqs = append(reqs,
			server.EvaluateRequest{Bench: b},
			server.EvaluateRequest{Bench: b, Classifier: "profile", Threshold: 90},
			server.EvaluateRequest{Bench: b, Thresholds: experiments.DefaultThresholds, ILP: true})
	}
	return reqs
}

func setupServeHot(seed uint64) (env, error) {
	n, err := startNode()
	if err != nil {
		return nil, err
	}
	e := &hotEnv{n: n}
	for _, req := range hotKeys() {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		e.bodies = append(e.bodies, body)
	}
	e.want = make([]json.RawMessage, len(e.bodies))
	prime := newClient(clients())
	err = parallel.ForEach(context.Background(), clients(), len(e.bodies), func(_ context.Context, i int) error {
		r, err := prime.evaluate(n.url, e.bodies[i])
		if err != nil {
			return err
		}
		if r.status != http.StatusOK || len(r.Result) == 0 {
			return fmt.Errorf("prime %s: status %d %s", e.bodies[i], r.status, r.Error)
		}
		e.want[i] = r.Result
		return nil
	})
	if err != nil {
		n.close()
		return nil, err
	}
	for c := 0; c < clients(); c++ {
		e.rngs = append(e.rngs, rand.New(rand.NewPCG(seed, uint64(c))))
		e.cls = append(e.cls, newClient(1))
	}
	return e, nil
}

func (e *hotEnv) measure(d time.Duration, tr *tracer) (*sample, error) {
	before, err := snapshotNodes(e.cls[0], []*node{e.n})
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	var hits, bytesIn atomic.Int64
	s := loop(d, tr, &next, len(e.bodies), func(c int, _ int64) (bool, error) {
		k := e.rngs[c].IntN(len(e.bodies))
		r, err := e.cls[c].evaluate(e.n.url, e.bodies[k])
		if err != nil {
			return false, err
		}
		if r.CacheHit {
			hits.Add(1)
		}
		bytesIn.Add(int64(r.size))
		return r.status == http.StatusOK && bytes.Equal(r.Result, e.want[k]), nil
	})
	if tr != nil {
		after, err := snapshotNodes(e.cls[0], []*node{e.n})
		if err != nil {
			return nil, err
		}
		s.layers = serverLayers(s, before, after, hits.Load(), bytesIn.Load(), 0)
	}
	return s, nil
}

func (e *hotEnv) close() { e.n.close() }

// --------------------------------------------------- serve-sweep, cluster-sweep

// sweepEnv sends five-threshold profile sweeps with ILP timing, each on a
// fresh evaluation seed, to one node or through a coordinator to two.
type sweepEnv struct {
	seed   uint64
	nodes  []*node
	co     *cluster.Coordinator
	coHS   *http.Server
	coDone chan struct{}
	agents []*cluster.Agent
	url    string // where requests go: the node, or the coordinator
	cls    []*client
	next   atomic.Int64

	lead     [verifyN]*report.Run // the first verifyN results, by index
	verified bool
}

// sweepRequest is request i of the stream seed selects: the primary
// benchmarks in rotation, each on a fresh input seed that is disjoint from
// the training inputs, the evaluation input and every other request.
func sweepRequest(seed uint64, i int64) server.EvaluateRequest {
	names := workload.Names()
	return server.EvaluateRequest{
		Bench:      names[i%int64(len(names))],
		Seed:       freshSeed(seed, i),
		Scale:      1,
		Thresholds: experiments.DefaultThresholds,
		ILP:        true,
	}
}

// reservedSeeds are the training and evaluation input seeds, which a fresh
// sweep seed must avoid.
var reservedSeeds = func() map[uint64]bool {
	m := map[uint64]bool{workload.EvaluationInput().Seed: true}
	for _, in := range workload.TrainingInputs(experiments.DefaultTrainInputs) {
		m[in.Seed] = true
	}
	return m
}()

// freshSeed derives request i's input seed. The high bit is always set and
// the low bits carry i, so seeds never repeat within a run; the training
// and evaluation seeds are skipped.
func freshSeed(seed uint64, i int64) uint64 {
	for salt := uint64(0); ; salt++ {
		h := splitmix(seed ^ splitmix(salt))
		s := (h &^ 0xFFFFFF) | 1<<63 | uint64(i)&0xFFFFFF
		if !reservedSeeds[s] {
			return s
		}
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func setupSweep(seed uint64, nodes int) (env, error) {
	e := &sweepEnv{seed: seed}
	for i := 0; i < nodes; i++ {
		n, err := startNode()
		if err != nil {
			e.close()
			return nil, err
		}
		e.nodes = append(e.nodes, n)
	}
	e.url = e.nodes[0].url
	ctl := newClient(clients())
	if nodes > 1 {
		e.co = cluster.New(cluster.Config{Logf: discard})
		var err error
		if e.coHS, e.url, e.coDone, err = serve(e.co.Handler()); err != nil {
			e.close()
			return nil, err
		}
		// Nodes join the way vpserve -coordinator does: an agent that
		// registers and keeps heartbeating, so no node expires mid-run.
		for _, n := range e.nodes {
			a, err := cluster.StartAgent(cluster.AgentConfig{CoordinatorURL: e.url, AdvertiseURL: n.url})
			if err != nil {
				e.close()
				return nil, err
			}
			e.agents = append(e.agents, a)
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			var snap cluster.MetricsSnapshot
			if err := ctl.getJSON(e.url+"/metrics", &snap); err == nil && snap.NodesLive == nodes {
				break
			}
			if time.Now().After(deadline) {
				e.close()
				return nil, fmt.Errorf("cluster: %d nodes did not join", nodes)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Warm the training profiles (one merged image per benchmark and node)
	// with a sweep of each benchmark under its evaluation input.
	names := workload.Names()
	err := parallel.ForEach(context.Background(), clients(), len(names), func(_ context.Context, i int) error {
		body, err := json.Marshal(server.EvaluateRequest{Bench: names[i], Thresholds: experiments.DefaultThresholds, ILP: true})
		if err != nil {
			return err
		}
		r, err := ctl.evaluate(e.url, body)
		if err != nil {
			return err
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("warm %s: status %d %s", names[i], r.status, r.Error)
		}
		return nil
	})
	if err != nil {
		e.close()
		return nil, err
	}
	for c := 0; c < clients(); c++ {
		e.cls = append(e.cls, newClient(1))
	}
	return e, nil
}

// checkSweep decodes a sweep reply and checks its shape against the request.
func checkSweep(req server.EvaluateRequest, r *reply) (*report.Run, bool) {
	if r.status != http.StatusOK || r.CacheHit {
		return nil, false
	}
	var run report.Run
	if err := json.Unmarshal(r.Result, &run); err != nil {
		return nil, false
	}
	ok := run.Program == req.Bench && run.Input == workload.Input{Seed: req.Seed, Scale: 1}.String() &&
		run.Instructions > 0 && len(run.Sweep) == len(req.Thresholds)
	for i, sw := range run.Sweep {
		ok = ok && sw.Threshold == req.Thresholds[i] && sw.ILP != nil && sw.Instructions == run.Instructions
	}
	return &run, ok
}

func (e *sweepEnv) measure(d time.Duration, tr *tracer) (*sample, error) {
	before, err := snapshotNodes(e.cls[0], e.nodes)
	if err != nil {
		return nil, err
	}
	var coBefore cluster.MetricsSnapshot
	if e.co != nil {
		if err := e.cls[0].getJSON(e.url+"/metrics", &coBefore); err != nil {
			return nil, err
		}
	}
	var hits, bytesIn, instrs atomic.Int64
	s := loop(d, tr, &e.next, len(workload.Names()), func(c int, i int64) (bool, error) {
		req := sweepRequest(e.seed, i)
		body, err := json.Marshal(req)
		if err != nil {
			return false, err
		}
		r, err := e.cls[c].evaluate(e.url, body)
		if err != nil {
			return false, err
		}
		if r.CacheHit {
			hits.Add(1)
		}
		bytesIn.Add(int64(r.size))
		run, ok := checkSweep(req, r)
		if run != nil {
			instrs.Add(run.Instructions)
		}
		if i < verifyN {
			e.lead[i] = run
		}
		return ok, nil
	})
	if !e.verified && e.next.Load() >= verifyN {
		e.verified = true
		checked, bad, err := e.verify()
		if err != nil {
			return nil, err
		}
		s.ops += checked
		s.failed += bad
	}
	if tr != nil {
		after, err := snapshotNodes(e.cls[0], e.nodes)
		if err != nil {
			return nil, err
		}
		s.layers = serverLayers(s, before, after, hits.Load(), bytesIn.Load(), instrs.Load())
		if e.co != nil {
			var coAfter cluster.MetricsSnapshot
			if err := e.cls[0].getJSON(e.url+"/metrics", &coAfter); err != nil {
				return nil, err
			}
			clusterLayers(s, coBefore, coAfter, before, after)
		}
	}
	return s, nil
}

// verify prints the digest of the leading results. Behind a coordinator it
// also re-evaluates each leading request on a single node, where the merged
// report must be byte-identical, and returns how many it compared and how
// many of those differ. A leading request that failed was already counted
// as a failed operation and is not compared.
func (e *sweepEnv) verify() (checked, bad int64, err error) {
	h := sha256.New()
	for i, run := range e.lead {
		if run == nil {
			continue
		}
		got, err := json.Marshal(run)
		if err != nil {
			return 0, 0, err
		}
		h.Write(got)
		if e.co == nil {
			continue
		}
		checked++
		body, err := json.Marshal(sweepRequest(e.seed, int64(i)))
		if err != nil {
			return 0, 0, err
		}
		r, err := e.cls[0].evaluate(e.nodes[0].url, body)
		if err != nil {
			return 0, 0, err
		}
		if r.status != http.StatusOK {
			bad++
			fmt.Fprintf(os.Stderr, "sweep request %d on a single node: status %d %s\n", i, r.status, r.Error)
			continue
		}
		var single report.Run
		if err := json.Unmarshal(r.Result, &single); err != nil {
			return 0, 0, err
		}
		want, err := json.Marshal(&single)
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(got, want) {
			bad++
			fmt.Fprintf(os.Stderr, "sweep request %d: cluster result differs from a single node\n", i)
		}
	}
	fmt.Printf("sweep_digest %x (first %d results)\n", h.Sum(nil), verifyN)
	return checked, bad, nil
}

func (e *sweepEnv) close() {
	for _, a := range e.agents {
		a.Close()
	}
	if e.coHS != nil {
		_ = e.coHS.Close()
		<-e.coDone
		e.co.Close()
	}
	for _, n := range e.nodes {
		n.close()
	}
}

// ------------------------------------------------------------ /metrics deltas

func snapshotNodes(c *client, nodes []*node) ([]server.MetricsSnapshot, error) {
	out := make([]server.MetricsSnapshot, len(nodes))
	for i, n := range nodes {
		if err := c.getJSON(n.url+"/metrics", &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stageDelta is the time (ms) and observation count a stage histogram
// gained between two snapshots, summed over nodes.
func stageDelta(before, after []server.MetricsSnapshot, stage string) (float64, int64) {
	var sum float64
	var n int64
	for i := range after {
		a, b := after[i].Stages[stage], before[i].Stages[stage]
		sum += a.MeanMS*float64(a.Count) - b.MeanMS*float64(b.Count)
		n += a.Count - b.Count
	}
	return sum, n
}

// serverLayers turns the node /metrics deltas of a traced window into
// per-request layer metrics. instrs is the summed dynamic instruction count
// of the replies, which with the recording count gives the records recorded
// per request.
func serverLayers(s *sample, before, after []server.MetricsSnapshot, hits, bytesIn, instrs int64) map[string]metric {
	reqs := float64(max(len(s.lat), 1))
	m := map[string]metric{}
	for _, st := range []string{"queue_wait", "execute", "resolve", "record", "encode", "annotate", "replay"} {
		sum, _ := stageDelta(before, after, st)
		m["server."+st+"_ms"] = metric{sum / reqs, "ms"}
	}
	total, jobs := stageDelta(before, after, "total")
	var lat float64
	for _, d := range s.lat {
		lat += ms(d)
	}
	m["server.http_ms"] = metric{lat/reqs - total/float64(max(jobs, 1)), "ms"}
	m["server.cache_hit_frac"] = metric{float64(hits) / reqs, "frac"}
	m["server.response_kb"] = metric{float64(bytesIn) / reqs / 1024, "KB"}
	var resident, rejected, saved, stalls, recs, encoded float64
	for i := range after {
		resident += float64(after[i].TraceBytesResident)
		rejected += float64(after[i].JobsRejected - before[i].JobsRejected)
		saved += float64(after[i].TraceReplayPassesSaved - before[i].TraceReplayPassesSaved)
		stalls += float64(after[i].EncodeAheadStalls - before[i].EncodeAheadStalls)
		ra, ea := recordTotals(after[i])
		rb, eb := recordTotals(before[i])
		recs += ra - rb
		encoded += ea - eb
	}
	_, recordings := stageDelta(before, after, "record")
	m["trace.records"] = metric{float64(instrs) / reqs * float64(recordings) / reqs, "count"}
	m["server.trace_resident_mb"] = metric{resident / (1 << 20), "MB"}
	m["server.jobs_rejected"] = metric{rejected, "count"}
	m["server.replay_passes_saved"] = metric{saved / reqs, "count"}
	m["trace.encode_stalls"] = metric{stalls / reqs, "count"}
	if recs > 0 {
		m["trace.encoded_bytes_per_rec"] = metric{encoded / recs, "B/rec"}
	}
	return m
}

// recordTotals recovers a node's cumulative recorded records and encoded
// trace bytes, which /metrics serves only as ratios: record_minstr_per_s
// is records over the record stage's total time, and
// trace_codec_bytes_per_record is encoded bytes over records.
func recordTotals(s server.MetricsSnapshot) (records, encoded float64) {
	st := s.Stages["record"]
	records = s.RecordMinstrPerS * 1e3 * st.MeanMS * float64(st.Count) // Minstr/s × ms = 1e3 records
	return records, records * s.TraceCodecBytesPerRecord
}

// clusterLayers adds the coordinator's per-request figures to s.layers.
func clusterLayers(s *sample, before, after cluster.MetricsSnapshot, nb, na []server.MetricsSnapshot) {
	reqs := float64(max(len(s.lat), 1))
	delta := func(st string) float64 {
		a, b := after.Stages[st], before.Stages[st]
		return a.MeanMS*float64(a.Count) - b.MeanMS*float64(b.Count)
	}
	_, records := stageDelta(nb, na, "record")
	s.layers["cluster.dispatch_ms"] = metric{delta("dispatch") / reqs, "ms"}
	s.layers["cluster.merge_ms"] = metric{delta("merge") / reqs, "ms"}
	s.layers["cluster.shards_per_request"] = metric{float64(after.ShardsDispatched-before.ShardsDispatched) / reqs, "count"}
	s.layers["cluster.shards_redispatched"] = metric{float64(after.ShardsRedispatched - before.ShardsRedispatched), "count"}
	s.layers["cluster.hedges_fired"] = metric{float64(after.HedgesFired - before.HedgesFired), "count"}
	s.layers["cluster.spills_routed"] = metric{float64(after.SpillsRouted - before.SpillsRouted), "count"}
	s.layers["cluster.record_amplification"] = metric{float64(records) / reqs, "count"}
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
