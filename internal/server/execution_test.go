package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/annotate"
	"repro/internal/asm"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// oracleRun evaluates req by record and replay, the test oracle for the
// one-execution pipeline: record the program with a trace.Recorder, then
// MultiEval the job's configurations over the recording. A submitted program's
// self-profile is a replay of that recording into a Collector. Training
// images come from s, whose training path records nothing.
func oracleRun(t *testing.T, s *Server, req EvaluateRequest) *report.Run {
	t.Helper()
	req.Normalize()
	p, input, err := s.resolveProgram(&req)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := workload.FingerprintOf(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	if _, err := workload.RunConfig(p, s.vmConfig(), rec); err != nil {
		t.Fatal(err)
	}
	rec.Seal()
	var (
		ths   []float64
		annos []*annotation
	)
	if req.Classifier == "profile" {
		var im *profiler.Image
		if req.Program != "" {
			col := profiler.NewCollector()
			rec.Replay(col)
			im = col.Image(p.Name, "self")
		} else if im, err = s.profileImage(p, fp, &req); err != nil {
			t.Fatal(err)
		}
		ths = req.sweepThresholds()
		for _, th := range ths {
			opts := annotate.DefaultOptions
			opts.AccuracyThreshold = th
			ap, st, err := annotate.Apply(p, im, opts)
			if err != nil {
				t.Fatal(err)
			}
			annos = append(annos, &annotation{dirs: trace.DirsOf(ap.Text), stats: st})
		}
	}
	ev, err := newEvaluation(&req, ths, annos)
	if err != nil {
		t.Fatal(err)
	}
	saved := rec.MultiEval(ev.cfgs...)
	return ev.report(p, fp, input, rec.Len(), saved)
}

// submitProgram registers p as a submitted program and returns its id.
func submitProgram(t *testing.T, s *Server, p *program.Program) string {
	t.Helper()
	fp, err := workload.FingerprintOf(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.programs.Do(fp, func() (*program.Program, error) { return p, nil }); err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestExecutionMatchesRecordedOracle: every result of the one-execution
// pipeline equals a record-then-MultiEval oracle of the same configurations
// — for benchmarks and submitted programs (self-profiled), every request
// shape (FSM, FSM+ILP, profile, last-value on the infinite table, the
// 90..50 ILP sweep, a two-threshold last-value sweep), canonical and fresh
// seeds, at 1, 2 and 4 procs (one evaluation lane, or several behind a
// stage-ahead goroutine).
func TestExecutionMatchesRecordedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep skipped in -short mode")
	}
	inf := 0
	shapes := func(base EvaluateRequest, seed uint64) []EvaluateRequest {
		out := []EvaluateRequest{
			{},
			{ILP: true},
			{Classifier: "profile", Threshold: 90},
			{Predictor: "lastvalue", Entries: &inf},
			{Thresholds: []float64{90, 80, 70, 60, 50}, ILP: true},
			{Predictor: "lastvalue", Thresholds: []float64{90, 60}},
		}
		for i := range out {
			out[i].Bench, out[i].Program = base.Bench, base.Program
			if base.Bench != "" && i >= 4 {
				out[i].Seed = seed + uint64(i) // fresh inputs, as serve-sweep sends
			}
		}
		return out
	}
	submitted, err := workload.Build("li", workload.Input{Seed: 0x5EED, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := asm.Assemble("vecsum", tinySource)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		s := New(Config{Workers: 1})
		var reqs []EvaluateRequest
		for _, b := range []string{"ijpeg", "su2cor"} {
			reqs = append(reqs, shapes(EvaluateRequest{Bench: b}, uint64(procs)<<8)...)
		}
		for _, p := range []*program.Program{submitted, tiny} {
			reqs = append(reqs, shapes(EvaluateRequest{Program: submitProgram(t, s, p)}, 0)...)
		}
		for _, req := range reqs {
			norm := req
			norm.Normalize()
			name := fmt.Sprintf("procs=%d %s", procs, norm.ShardKey())
			got, hit, err := s.evaluate(context.Background(), &norm)
			if err != nil || hit {
				t.Fatalf("%s: evaluate: hit=%v err=%v", name, hit, err)
			}
			want := oracleRun(t, s, req)
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if string(gj) != string(wj) {
				t.Fatalf("%s: result differs from the recorded oracle:\ngot:  %s\nwant: %s", name, gj, wj)
			}
		}
		shutdown(t, s)
	}
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// panicLane is a batch kernel that panics on the second batch it is fed.
type panicLane struct{ batches int }

func (c *panicLane) Consume(*trace.Record) {}

func (c *panicLane) ConsumeBatch(*trace.Batch) {
	if c.batches++; c.batches == 2 {
		panic("lane boom")
	}
}

// TestExecutionLanePanicFailsJob: a consumer that panics on a non-zero
// evaluation lane, mid-execution, fails its job with a *PanicError; no sink
// goroutine is left running, and the daemon serves the next job.
func TestExecutionLanePanicFailsJob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	var armed atomic.Bool
	s.evalHook = func(cfgs []trace.EvalConfig) []trace.EvalConfig {
		if !armed.Swap(false) {
			return cfgs
		}
		// The FSM job's one configuration is lane 0; this one is lane 1.
		return append(cfgs, trace.EvalConfig{Consumer: &panicLane{}})
	}
	run := func() *job {
		j, err := s.newJob(EvaluateRequest{Bench: "compress"})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return j
	}

	base := runtime.NumGoroutine()
	armed.Store(true)
	j := run()
	var pe *PanicError
	if !errors.As(j.err, &pe) || pe.Val != "lane boom" {
		t.Fatalf("job error = %v, want the lane's *PanicError", j.err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after the failed job, want %d", runtime.NumGoroutine(), base)
		}
	}
	if j = run(); j.err != nil || j.result == nil || j.cacheHit {
		t.Fatalf("next job: err=%v result=%v hit=%v, want a fresh result", j.err, j.result != nil, j.cacheHit)
	}
	if n := s.metrics.PanicsRecovered.Load(); n != 1 {
		t.Fatalf("panics_recovered = %d, want 1", n)
	}
}

// TestExecutionSandboxLimitsFailJob: a guest that exceeds a sandbox limit
// fails its job with exactly the error recording it under the same limits
// returns, for every request shape (a submitted program's self-profile
// hits the limit first, with the same error), classified as a limit error;
// nothing is cached, so the retry fails the same way.
func TestExecutionSandboxLimitsFailJob(t *testing.T) {
	p, err := workload.Build("li", workload.Input{Seed: 0x5EED, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, lim := range []vm.Limits{{MaxSteps: 100_000}, {MaxTraceEvents: 100_000}} {
		_, want := workload.RunConfig(p, vm.Config{Limits: lim}, trace.NewRecorder())
		if !isLimitError(want) {
			t.Fatalf("%+v: recording error %v is not a limit error", lim, want)
		}
		s := New(Config{Workers: 1, Limits: lim})
		id := submitProgram(t, s, p)
		for _, req := range []EvaluateRequest{
			{Program: id},
			{Program: id, ILP: true},
			{Program: id, Classifier: "profile"},
			{Program: id, Thresholds: []float64{90, 50}, ILP: true},
		} {
			req.Normalize()
			for try := 0; try < 2; try++ {
				_, _, err := s.evaluate(context.Background(), &req)
				if err == nil || err.Error() != want.Error() || !isLimitError(err) {
					t.Fatalf("%+v %s try %d: error %v, want %v", lim, req.configKey(), try, err, want)
				}
			}
		}
		// As when the recording failed first: no self-profile was kept.
		if n := s.images.Stats().Entries; n != 0 {
			t.Fatalf("%+v: %d profile images cached from over-limit runs", lim, n)
		}
		j, err := s.newJob(EvaluateRequest{Program: id})
		if err != nil {
			t.Fatal(err)
		}
		_ = j.Wait(context.Background())
		if j.err == nil || j.err.Error() != want.Error() || s.metrics.FuelExhausted.Load() != 1 {
			t.Fatalf("%+v: job error %v (fuel_exhausted %d), want %v", lim, j.err, s.metrics.FuelExhausted.Load(), want)
		}
		shutdown(t, s)
	}
}
