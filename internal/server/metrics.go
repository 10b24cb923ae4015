package server

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// This file implements the observability surface of the daemon: monotonic
// job counters, per-stage latency histograms, and the aggregate snapshot
// /metrics serves. Everything is lock-light — counters are atomics, each
// histogram takes one short mutex per observation — so instrumentation stays
// invisible next to the simulation work it measures.

// latencyBounds are the histogram bucket upper bounds. Stage latencies range
// from microseconds (cache hits, annotation) to seconds (executing a large
// benchmark), so the buckets grow roughly ×2.5 per step.
var latencyBounds = []time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// numBuckets is len(latencyBounds) plus one overflow (+Inf) slot.
const numBuckets = 17

// Histogram is a fixed-bucket latency histogram.
type Histogram struct {
	mu     sync.Mutex
	counts [numBuckets]int64 // counts[i] covers d ≤ latencyBounds[i]; last slot is +Inf
	count  int64
	sum    time.Duration
	max    time.Duration
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// HistogramSnapshot is the JSON form of a histogram.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	// MeanMS/MaxMS are in milliseconds; P50MS/P95MS are bucket-resolution
	// estimates (the upper bound of the bucket holding the quantile).
	MeanMS  float64          `json:"mean_ms"`
	MaxMS   float64          `json:"max_ms"`
	P50MS   float64          `json:"p50_ms"`
	P95MS   float64          `json:"p95_ms"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot renders the histogram. Empty buckets are omitted to keep the
// /metrics payload small.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count}
	if h.count == 0 {
		return s
	}
	s.MeanMS = float64(h.sum) / float64(h.count) / float64(time.Millisecond)
	s.MaxMS = float64(h.max) / float64(time.Millisecond)
	s.P50MS = h.quantileLocked(0.50)
	s.P95MS = h.quantileLocked(0.95)
	s.Buckets = make(map[string]int64)
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		label := "+inf"
		if i < len(latencyBounds) {
			label = "<=" + latencyBounds[i].String()
		}
		s.Buckets[label] = n
	}
	return s
}

// quantileLocked returns the upper bound (ms) of the bucket containing the
// nearest-rank q-quantile, the ceil(q·count)-th smallest sample. Called with
// mu held and count > 0.
func (h *Histogram) quantileLocked(q float64) float64 {
	target := max(int64(math.Ceil(q*float64(h.count))), 1)
	var seen int64
	for i, n := range h.counts {
		seen += n
		if seen >= target {
			if i < len(latencyBounds) {
				return float64(latencyBounds[i]) / float64(time.Millisecond)
			}
			return float64(h.max) / float64(time.Millisecond)
		}
	}
	return float64(h.max) / float64(time.Millisecond)
}

// stage names instrument the job pipeline.
const (
	stageQueueWait = "queue_wait" // submit → worker pickup
	stageExecute   = "execute"    // worker pickup → result (total minus queue_wait)
	stageResolve   = "resolve"    // name/id → program image + fingerprint
	stageRecord    = "record"     // the one execution, feeding every configuration
	stageAnnotate  = "annotate"   // profile + threshold annotation (profile classifier)
	stageTotal     = "total"      // submit → result
)

var stageNames = []string{stageQueueWait, stageExecute, stageResolve, stageRecord, stageAnnotate, stageTotal}

// Metrics aggregates the daemon's counters and histograms.
type Metrics struct {
	JobsCompleted atomic.Int64
	JobsFailed    atomic.Int64
	JobsRejected  atomic.Int64 // queue full or shutting down
	JobsTimedOut  atomic.Int64

	// Failure-class counters for the fault-tolerance layer (DESIGN.md §9).
	PanicsRecovered      atomic.Int64 // guest/job panics converted to job errors
	FuelExhausted        atomic.Int64 // jobs failed on a vm.Limits bound
	ValidationRejections atomic.Int64 // malformed requests/images rejected up front

	// WorkersBusy is a gauge of workers currently executing a job (0 ≤
	// WorkersBusy ≤ pool size). TraceReplaySaved counts the executions the
	// one-execution evaluation avoided versus one execution per
	// configuration (DESIGN.md §10).
	WorkersBusy      atomic.Int64
	TraceReplaySaved atomic.Int64

	// TraceRecords and RecordNanos accumulate the records and wall time of
	// every job's execution (the record stage), giving the observed
	// execution throughput.
	TraceRecords atomic.Int64
	RecordNanos  atomic.Int64

	stages map[string]*Histogram
}

// NewMetrics returns a Metrics with one histogram per pipeline stage.
func NewMetrics() *Metrics {
	m := &Metrics{stages: make(map[string]*Histogram, len(stageNames))}
	for _, s := range stageNames {
		m.stages[s] = &Histogram{}
	}
	return m
}

// Stage returns the named stage histogram.
func (m *Metrics) Stage(name string) *Histogram { return m.stages[name] }

// ObserveStage records one stage latency.
func (m *Metrics) ObserveStage(name string, d time.Duration) {
	if h := m.stages[name]; h != nil {
		h.Observe(d)
	}
}

// MetricsSnapshot is the /metrics response body.
type MetricsSnapshot struct {
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	Workers       int   `json:"workers"`
	WorkersBusy   int64 `json:"workers_busy"`

	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsTimedOut  int64 `json:"jobs_timed_out"`

	PanicsRecovered      int64 `json:"panics_recovered"`
	FuelExhausted        int64 `json:"fuel_exhausted"`
	ValidationRejections int64 `json:"validation_rejections"`
	// FaultsInjected totals synthetic faults fired by an armed
	// fault-injection plan (0 in production); FaultPoints breaks them out
	// per injection point.
	FaultsInjected int64                        `json:"faults_injected"`
	FaultPoints    map[string]faults.PointStats `json:"fault_points,omitempty"`

	// TraceReplayPassesSaved totals the executions merged away across all
	// jobs (sweeps and ILP baselines share one execution).
	TraceReplayPassesSaved int64 `json:"trace_replay_passes_saved"`

	// TraceBytesResident, TraceCodecBytesPerRecord and EncodeAheadStalls
	// always read 0: vpserve keeps, encodes and spills no traces. They stay
	// so existing /metrics readers keep decoding.
	TraceBytesResident       int64   `json:"trace_bytes_resident"`
	TraceCodecBytesPerRecord float64 `json:"trace_codec_bytes_per_record"`
	EncodeAheadStalls        int64   `json:"encode_ahead_stalls"`
	// RecordMinstrPerS is the observed execution throughput: executed
	// instructions over record-stage wall time, in millions per second (0
	// until a job has executed).
	RecordMinstrPerS float64 `json:"record_minstr_per_s"`

	Caches map[string]CacheStats        `json:"caches"`
	Stages map[string]HistogramSnapshot `json:"stages"`

	// Durable reports the durability layer (journal entries, disk cache
	// bytes, recoveries, quarantined entries); omitted when no state dir is
	// configured.
	Durable *DurableSnapshot `json:"durable,omitempty"`
}
