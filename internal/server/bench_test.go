package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// Server-throughput benchmarks: requests/sec for cached vs uncached
// evaluate calls through the full HTTP stack (scripts/bench.sh feeds these
// into the "server" section of BENCH_report.json). The cached benchmark
// measures the serving overhead — queue, single-flight lookup, JSON — while
// the uncached ones include one execution of a freshly built program per
// request.

func benchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	s := New(Config{Workers: 4, QueueDepth: 256, RequestTimeout: 5 * time.Minute, ResultCache: 8192})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts
}

func benchEvaluate(b *testing.B, ts *httptest.Server, req EvaluateRequest) {
	b.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || jr.Result == nil {
		b.Fatalf("evaluate: %d %+v", resp.StatusCode, jr)
	}
}

// BenchmarkServerEvaluateCached measures repeated identical requests: after
// the first, every request is a result-cache hit.
func BenchmarkServerEvaluateCached(b *testing.B) {
	_, ts := benchServer(b)
	req := EvaluateRequest{Bench: "compress"}
	benchEvaluate(b, ts, req) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEvaluate(b, ts, req)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServerEvaluateCachedParallel is the cached path under client
// concurrency — the daemon's hot serving loop.
func BenchmarkServerEvaluateCachedParallel(b *testing.B) {
	_, ts := benchServer(b)
	req := EvaluateRequest{Bench: "compress"}
	benchEvaluate(b, ts, req) // prime
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchEvaluate(b, ts, req)
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServerEvaluateUncached varies the input seed per request, so
// every call executes a fresh program: the FSM baseline, and the 90..50
// threshold sweep with ILP timing (five profile engines, their ILP machines
// and the baseline machine on one execution; the training image and the
// annotations are cached after the first call, as for a long-lived daemon).
func BenchmarkServerEvaluateUncached(b *testing.B) {
	for _, leg := range []struct {
		name string
		req  EvaluateRequest
	}{
		{"fsm", EvaluateRequest{Bench: "compress"}},
		{"sweep-ilp", EvaluateRequest{Bench: "compress", Thresholds: []float64{90, 80, 70, 60, 50}, ILP: true}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			_, ts := benchServer(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := leg.req
				req.Seed = uint64(i + 1)
				benchEvaluate(b, ts, req)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

func BenchmarkCacheDo(b *testing.B) {
	c := NewCache[int](1024)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if _, _, err := c.Do(k, func() (int, error) { return i, nil }); err != nil {
			b.Fatal(err)
		}
	}
}
