package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/predictor"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// probeBench is the primary benchmark whose sealed evaluation trace the
// kernel probes replay.
const probeBench = "compress"

// probeRepeats is how many times each probe runs; the median is reported.
const probeRepeats = 3

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Req    int64  `json:"req"`    // request or regeneration id
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its index.
func (t *tracer) open(name string, parent int, req int64) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// close ends span i and returns its duration.
func (t *tracer) close(i int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// add records a span whose bounds are already known.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
}

// selfTime is span i's duration minus the part of it its children cover.
func (t *tracer) selfTime(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var kids [][2]int64
	for _, s := range t.spans {
		if s.Parent == i {
			kids = append(kids, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
	var covered, reach int64
	reach = t.spans[i].Start
	for _, k := range kids {
		lo, hi := max(k[0], reach), min(k[1], t.spans[i].End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return time.Duration(t.spans[i].End - t.spans[i].Start - covered)
}

// dump writes the spans under .bench_build/spans.
func (t *tracer) dump(workload string, seed uint64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}

// probes times each simulation kernel alone on probeBench's evaluation
// trace and adds the per-record costs to m.
func (t *tracer) probes(m map[string]metric) error {
	in := workload.EvaluationInput()
	prog, err := workload.Build(probeBench, in)
	if err != nil {
		return err
	}
	timeIt := func(f func() error) (time.Duration, error) {
		var ds []time.Duration
		for i := 0; i < probeRepeats; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			ds = append(ds, time.Since(t0))
		}
		return median(ds), nil
	}
	perRec := func(d time.Duration, n int64) float64 { return float64(d.Nanoseconds()) / float64(n) }

	// Cold assembly: fresh seeds miss the program cache.
	seed := uint64(0x5EED_0000_0000)
	build, err := timeIt(func() error {
		seed++
		_, err := workload.Build(probeBench, workload.Input{Seed: seed, Scale: 1})
		return err
	})
	if err != nil {
		return err
	}
	m["workload.build_ms"] = metric{ms(build), "ms"}

	var instrs int64
	exec, err := timeIt(func() (err error) {
		instrs, err = workload.Run(prog)
		return err
	})
	if err != nil {
		return err
	}
	m["vm.execute_ns_per_instr"] = metric{perRec(exec, instrs), "ns/instr"}

	var rec *trace.Recorder
	record, err := timeIt(func() error {
		rec = trace.NewRecorder()
		_, err := workload.Run(prog, rec)
		rec.Seal()
		return err
	})
	if err != nil {
		return err
	}
	n := rec.Len()
	m["trace.record_ns_per_rec"] = metric{perRec(record, n), "ns/rec"}

	replay := func(c func() trace.Consumer) (time.Duration, error) {
		return timeIt(func() error { rec.Replay(c()); return nil })
	}
	decode, _ := replay(func() trace.Consumer { return &trace.Counter{} })
	m["trace.decode_ns_per_rec"] = metric{perRec(decode, n), "ns/rec"}
	prof, _ := replay(func() trace.Consumer { return profiler.NewCollector() })
	m["profiler.kernel_ns_per_rec"] = metric{perRec(prof, n), "ns/rec"}

	var engine *vpsim.Engine
	newEngine := func() (*vpsim.Engine, error) {
		store, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
		if err != nil {
			return nil, err
		}
		pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
		if err != nil {
			return nil, err
		}
		return vpsim.NewFSMEngine(store, pol), nil
	}
	eng, err := timeIt(func() (err error) {
		if engine, err = newEngine(); err == nil {
			rec.Replay(engine)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["vpsim.engine_ns_per_rec"] = metric{perRec(eng, n), "ns/rec"}
	st := engine.Stats()
	m["vpsim.correct_frac"] = metric{float64(st.Correct()) / float64(max(st.Correct()+st.Incorrect(), 1)), "frac"}

	mach, err := timeIt(func() error {
		mc, err := ilp.New(ilp.DefaultConfig, nil)
		if err == nil {
			rec.Replay(mc)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["ilp.machine_ns_per_rec"] = metric{perRec(mach, n), "ns/rec"}

	// The serve-sweep replay: five profile engines, one per threshold, in
	// one MultiEval pass.
	ctx := experiments.NewContext()
	cfgDirs := make([]trace.EvalConfig, len(experiments.DefaultThresholds))
	for i, th := range experiments.DefaultThresholds {
		ap, _, err := ctx.Annotated(probeBench, th)
		if err != nil {
			return err
		}
		cfgDirs[i].Dirs = trace.DirsOf(ap.Text)
	}
	multi, err := timeIt(func() error {
		cfgs := append([]trace.EvalConfig(nil), cfgDirs...)
		for i := range cfgs {
			store, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
			if err != nil {
				return err
			}
			cfgs[i].Consumer = vpsim.NewProfileEngine(store)
		}
		rec.MultiEval(cfgs...)
		return nil
	})
	if err != nil {
		return err
	}
	m["trace.multieval5_ns_per_rec"] = metric{perRec(multi, n), "ns/rec"}
	return nil
}

// layerMetrics lists every per-layer metric and its unit. A traced run
// prints all of them; a layer the workload does not exercise reads 0.
func layerMetrics() map[string]string {
	m := map[string]string{
		"workload.build_ms": "ms", "server.resolve_ms": "ms",
		"experiments.train_ms": "ms", "profiler.merge_ms": "ms", "vm.execute_ns_per_instr": "ns/instr",
		"trace.record_ms": "ms", "trace.record_ns_per_rec": "ns/rec", "trace.encode_ms": "ms",
		"trace.encode_stalls": "count", "trace.encoded_bytes_per_rec": "B/rec", "trace.records": "count",
		"server.record_ms": "ms", "server.encode_ms": "ms",
		"trace.decode_ns_per_rec": "ns/rec", "trace.multieval5_ns_per_rec": "ns/rec",
		"trace.replay_passes": "count", "server.replay_passes_saved": "count",
		"profiler.eval_ms": "ms", "profiler.kernel_ns_per_rec": "ns/rec",
		"annotate.apply_ms": "ms", "annotate.candidates": "count", "server.annotate_ms": "ms",
		"vpsim.engine_ns_per_rec": "ns/rec", "vpsim.correct_frac": "frac",
		"ilp.machine_ns_per_rec": "ns/rec", "server.replay_ms": "ms",
		"experiments.artifacts_ms": "ms", "render_ms": "ms", "unattributed_frac": "frac",
		"server.queue_wait_ms": "ms", "server.execute_ms": "ms", "server.http_ms": "ms",
		"server.cache_hit_frac": "frac", "server.response_kb": "KB", "server.trace_resident_mb": "MB",
		"server.jobs_rejected": "count",
		"cluster.dispatch_ms":  "ms", "cluster.merge_ms": "ms", "cluster.shards_per_request": "count",
		"cluster.shards_redispatched": "count", "cluster.hedges_fired": "count",
		"cluster.spills_routed": "count", "cluster.record_amplification": "count",
		"trace_overhead.wall_s": "s", "trace_overhead.latency_p50_ms": "ms",
	}
	for _, r := range allRunners() {
		m[artifactMetric(r.ID)] = "ms"
	}
	return m
}
