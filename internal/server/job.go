package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/annotate"
	"repro/internal/classify"
	"repro/internal/faults"
	"repro/internal/ilp"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// Fault-injection points bracketing every failure-prone boundary of the job
// pipeline (see package faults and DESIGN.md §9): queue intake, worker
// pickup, each pipeline stage, and the result-cache fill.
const (
	PointIntake   = "server.intake"   // pool.submit, before the queue send
	PointWorker   = "server.worker"   // worker pickup, inside the per-job recover
	PointResolve  = "server.resolve"  // request → program image
	PointResults  = "server.results"  // result-cache fill
	PointRecord   = "server.record"   // the job's one guest execution
	PointAnnotate = "server.annotate" // profile + annotate cache fill
	PointReplay   = "server.replay"   // engine and ILP-machine setup
)

func init() {
	faults.Register(PointIntake, PointWorker, PointResolve, PointResults,
		PointRecord, PointAnnotate, PointReplay)
}

// EvaluateRequest is the body of POST /v1/jobs and POST /v1/evaluate: run
// one program through one predictor/classifier configuration and return the
// outcome statistics. Exactly one of Bench (a named synthetic benchmark) or
// Program (the fingerprint id of a previously submitted program) selects the
// program.
type EvaluateRequest struct {
	Bench   string `json:"bench,omitempty"`
	Program string `json:"program,omitempty"`
	// Seed/Scale parameterize a named benchmark's input (ignored for
	// submitted programs). Zero seed means the canonical evaluation input.
	Seed  uint64 `json:"seed,omitempty"`
	Scale int    `json:"scale,omitempty"`

	// Predictor is "stride" (default) or "lastvalue". Entries is the
	// prediction-table size (default 512; explicit 0 selects the infinite
	// table), Assoc the associativity (default 2).
	Predictor string `json:"predictor,omitempty"`
	Entries   *int   `json:"entries,omitempty"`
	Assoc     int    `json:"assoc,omitempty"`

	// Classifier is "fsm" (default, the hardware saturating-counter
	// baseline) or "profile" (the paper's proposal: profile, annotate at
	// Threshold, admit only tagged instructions).
	Classifier string  `json:"classifier,omitempty"`
	Threshold  float64 `json:"threshold,omitempty"`
	// Thresholds requests a multi-threshold sweep (profile classifier
	// only): the job evaluates every listed threshold in ONE execution
	// of the program and returns one result per threshold in
	// Run.Sweep. Mutually exclusive with Threshold.
	Thresholds []float64 `json:"thresholds,omitempty"`

	// ILP additionally times the run through the abstract ILP machine
	// (40-entry window) against a no-prediction baseline of the same
	// trace.
	ILP bool `json:"ilp,omitempty"`
}

// Normalize applies defaults in place. Exported so the cluster coordinator
// can canonicalize a request before planning shards (the defaults decide
// whether a request is a shardable profile sweep).
func (r *EvaluateRequest) Normalize() {
	if r.Predictor == "" {
		r.Predictor = "stride"
	}
	if r.Entries == nil {
		n := predictor.DefaultTableConfig.Entries
		r.Entries = &n
	}
	if r.Assoc == 0 {
		r.Assoc = predictor.DefaultTableConfig.Assoc
	}
	if r.Classifier == "" {
		if len(r.Thresholds) > 0 {
			r.Classifier = "profile"
		} else {
			r.Classifier = "fsm"
		}
	}
	if r.Threshold == 0 && len(r.Thresholds) == 0 {
		r.Threshold = annotate.DefaultOptions.AccuracyThreshold
	}
	if r.Scale <= 0 {
		r.Scale = 1
	}
}

// Validate rejects malformed requests before they reach the queue (or, at
// the coordinator, before any shard is dispatched). Call Normalize first.
func (r *EvaluateRequest) Validate() error {
	if (r.Bench == "") == (r.Program == "") {
		return fmt.Errorf("exactly one of \"bench\" or \"program\" must be set")
	}
	if r.Bench != "" {
		if _, ok := workload.ByName(r.Bench); !ok {
			return fmt.Errorf("unknown benchmark %q (have %v)", r.Bench, workload.AllNames())
		}
	}
	switch r.Predictor {
	case "stride", "lastvalue":
	default:
		return fmt.Errorf("unknown predictor %q (want stride or lastvalue)", r.Predictor)
	}
	switch r.Classifier {
	case "fsm", "profile":
	default:
		return fmt.Errorf("unknown classifier %q (want fsm or profile)", r.Classifier)
	}
	if *r.Entries < 0 {
		return fmt.Errorf("entries must be ≥ 0 (0 = infinite table)")
	}
	if *r.Entries > 0 && r.Assoc <= 0 {
		return fmt.Errorf("assoc must be positive for a finite table")
	}
	if r.Threshold < 0 || r.Threshold > 100 {
		return fmt.Errorf("threshold %g outside [0,100]", r.Threshold)
	}
	if len(r.Thresholds) > 0 {
		if r.Classifier != "profile" {
			return fmt.Errorf("a thresholds sweep requires the profile classifier")
		}
		if r.Threshold != 0 {
			return fmt.Errorf("threshold and thresholds are mutually exclusive")
		}
		for _, th := range r.Thresholds {
			if th < 0 || th > 100 {
				return fmt.Errorf("sweep threshold %g outside [0,100]", th)
			}
		}
	}
	return nil
}

// configKey is the canonical predictor-configuration part of a result-cache
// key. Two normalized requests with equal configKeys are guaranteed to
// produce identical results for the same program.
func (r *EvaluateRequest) configKey() string {
	key := fmt.Sprintf("%s/e%d/a%d/%s", r.Predictor, *r.Entries, r.Assoc, r.Classifier)
	if r.Classifier == "profile" {
		if len(r.Thresholds) > 0 {
			key += "/t"
			for i, th := range r.Thresholds {
				if i > 0 {
					key += ","
				}
				key += fmt.Sprintf("%g", th)
			}
		} else {
			key += fmt.Sprintf("/t%g", r.Threshold)
		}
	}
	if r.ILP {
		key += "/ilp"
	}
	return key
}

// ShardKey is the canonical identity of a normalized request as a unit of
// cluster work: the program identity (fingerprint, or benchmark/input cache
// key) joined with the predictor configuration. A coordinator computes it for
// every shard it dispatches and a worker computes it for every journaled job
// it recovers, so the two sides can reconcile after a worker restart without
// exchanging request bodies. Call Normalize first — both sides do, which is
// what makes the keys comparable.
func (r *EvaluateRequest) ShardKey() string {
	id := "prog/" + r.Program
	if r.Program == "" {
		in := workload.EvaluationInput()
		if r.Seed != 0 {
			in = workload.Input{Seed: r.Seed, Scale: r.Scale}
		}
		id = workload.BenchKey(r.Bench, in)
	}
	return id + "|" + r.configKey()
}

// sweepThresholds returns the thresholds a profile-classified request
// evaluates: the sweep list, or the single Threshold.
func (r *EvaluateRequest) sweepThresholds() []float64 {
	if len(r.Thresholds) > 0 {
		return r.Thresholds
	}
	return []float64{r.Threshold}
}

// predictorKind maps the request predictor name.
func (r *EvaluateRequest) predictorKind() predictor.Kind {
	if r.Predictor == "lastvalue" {
		return predictor.LastValue
	}
	return predictor.Stride
}

// newStore builds a fresh prediction table for one replay.
func (r *EvaluateRequest) newStore() (predictor.Store, error) {
	if *r.Entries == 0 {
		return predictor.NewInfinite(r.predictorKind()), nil
	}
	return predictor.NewTable(r.predictorKind(), predictor.TableConfig{Entries: *r.Entries, Assoc: r.Assoc})
}

// JobStatus is the lifecycle of a job.
type JobStatus string

const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// job is one queued evaluate request. The pool goroutines write result
// fields before closing done; readers must select on done (or Wait) first.
type job struct {
	id  string
	req EvaluateRequest

	ctx    context.Context
	cancel context.CancelFunc

	enqueued time.Time
	done     chan struct{}

	// Written by the worker before close(done), immutable afterwards;
	// readers reach them only after observing done closed (a
	// happens-before edge), so no lock is needed.
	result   *report.Run
	err      error
	cacheHit bool

	// mu guards the timestamps, which pollers read while the worker is
	// still writing them.
	mu       sync.Mutex
	started  time.Time
	finished time.Time
}

// markStarted stamps worker pickup and returns the time.
func (j *job) markStarted() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.started = time.Now()
	return j.started
}

// markFinished stamps completion and returns the time.
func (j *job) markFinished() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	return j.finished
}

// times returns the start/finish stamps (zero if not reached).
func (j *job) times() (started, finished time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.started, j.finished
}

// Wait blocks until the job finished or ctx is cancelled.
func (j *job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status derives the externally visible state.
func (j *job) Status() JobStatus {
	select {
	case <-j.done:
		if j.err != nil {
			return StatusFailed
		}
		return StatusDone
	default:
		if started, _ := j.times(); !started.IsZero() {
			return StatusRunning
		}
		return StatusQueued
	}
}

// annotation is a cached profile→annotate product: the per-address directive
// table the replay patches in, plus the pass statistics for the report.
type annotation struct {
	dirs  []isa.Directive
	stats annotate.Stats
}

// run executes one job on a worker goroutine: resolve the program, annotate
// if profile-classified, execute it once through fresh engines, and
// assemble the report. Cancellation is honored at stage boundaries —
// individual stages are at most one benchmark execution long.
//
// The body is panic-isolated: a panicking job (malformed guest state, an
// injected fault, a bug in a pipeline stage) fails that job with a
// structured *PanicError while the worker goroutine and the daemon survive.
func (s *Server) run(j *job) {
	started := j.markStarted()
	s.metrics.ObserveStage(stageQueueWait, started.Sub(j.enqueued))
	s.metrics.WorkersBusy.Add(1)
	defer func() {
		finished := j.markFinished()
		s.metrics.WorkersBusy.Add(-1)
		// The execute histogram complements queue_wait: total = queue_wait
		// + execute, so /metrics splits latency into "waiting for a worker"
		// vs "doing the work".
		s.metrics.ObserveStage(stageExecute, finished.Sub(started))
		s.metrics.ObserveStage(stageTotal, finished.Sub(j.enqueued))
		if j.err != nil {
			if j.ctx.Err() != nil {
				s.metrics.JobsTimedOut.Add(1)
			}
			if isLimitError(j.err) {
				s.metrics.FuelExhausted.Add(1)
			}
			s.metrics.JobsFailed.Add(1)
		} else {
			s.metrics.JobsCompleted.Add(1)
		}
		s.journalOutcome(j)
		j.cancel()
		close(j.done)
	}()
	// Registered after (so it runs before) the bookkeeping defer above:
	// the recovery assigns j.err, then the bookkeeping observes it.
	defer func() {
		if r := recover(); r != nil {
			s.metrics.PanicsRecovered.Add(1)
			j.result, j.cacheHit = nil, false
			j.err = recoveredPanic(r)
		}
	}()

	if err := j.ctx.Err(); err != nil {
		j.err = fmt.Errorf("cancelled while queued: %w", err)
		return
	}
	if err := faults.Inject(PointWorker); err != nil {
		j.err = err
		return
	}
	j.result, j.cacheHit, j.err = s.evaluateJob(j.ctx, &j.req, j.id)
}

// journalOutcome records a job's terminal state in the WAL (best-effort: a
// missing done/fail entry only means the job re-runs after a restart, and the
// persisted result cache makes that re-run a disk hit).
func (s *Server) journalOutcome(j *job) {
	if s.dur == nil {
		return
	}
	e := journalEntry{Type: "done", ID: j.id}
	if j.err != nil {
		// A cancellation is not a verdict on the job — leave it incomplete so
		// a restart retries it; everything else (validation, guest limits,
		// injected faults already surfaced to the client) is final.
		if j.ctx.Err() != nil {
			s.dur.jobFinished(j.id)
			return
		}
		e = journalEntry{Type: "fail", ID: j.id, Err: j.err.Error()}
	}
	if err := s.dur.appendEntry(e); err != nil {
		s.dur.logf("durable: journal %s for %s: %v", e.Type, j.id, err)
	}
	s.dur.jobFinished(j.id)
}

// recoveredPanic wraps a recover() value, reusing an existing *PanicError
// (a cache fill already converted and counted it) instead of double-wrapping.
func recoveredPanic(r any) error {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Val: r, Stack: debug.Stack()}
}

// isLimitError classifies guest-sandbox violations (vm.Limits).
func isLimitError(err error) bool {
	return errors.Is(err, vm.ErrFuelExhausted) ||
		errors.Is(err, vm.ErrTraceLimit) ||
		errors.Is(err, vm.ErrMemLimit)
}

// evaluate is the cache-aware pipeline entry. It is also what the
// server-throughput benchmark drives directly.
func (s *Server) evaluate(ctx context.Context, req *EvaluateRequest) (*report.Run, bool, error) {
	return s.evaluateJob(ctx, req, "")
}

// evaluateJob is evaluate with a job identity: when the request is a
// checkpointable sweep, jid keys the journaled per-chunk partial results (and
// the recovered chunks a restarted node hands back to the re-enqueued job).
func (s *Server) evaluateJob(ctx context.Context, req *EvaluateRequest, jid string) (*report.Run, bool, error) {
	t0 := time.Now()
	if err := faults.Inject(PointResolve); err != nil {
		return nil, false, err
	}
	p, input, err := s.resolveProgram(req)
	if err != nil {
		return nil, false, err
	}
	fp, err := workload.FingerprintOf(p)
	if err != nil {
		return nil, false, err
	}
	s.metrics.ObserveStage(stageResolve, time.Since(t0))

	key := fp + "|" + req.configKey()
	return durableDo(s, s.results, kindResults, key, encodeRun, decodeRun,
		func() (*report.Run, error) {
			if err := faults.Inject(PointResults); err != nil {
				return nil, err
			}
			if jid != "" && s.shouldCheckpoint(req) {
				return s.computeCheckpointed(ctx, p, fp, input, req, jid)
			}
			return s.compute(ctx, p, fp, input, req)
		})
}

// resolveProgram maps a request to an executable image: build the named
// benchmark for its input, or look up a submitted program by fingerprint.
func (s *Server) resolveProgram(req *EvaluateRequest) (*program.Program, workload.Input, error) {
	if req.Bench != "" {
		in := workload.EvaluationInput()
		if req.Seed != 0 {
			in = workload.Input{Seed: req.Seed, Scale: req.Scale}
		}
		p, err := workload.Build(req.Bench, in)
		return p, in, err
	}
	p, ok := s.programByID(req.Program)
	if !ok {
		return nil, workload.Input{}, fmt.Errorf("unknown program %q (submit it via POST /v1/programs first)", req.Program)
	}
	return p, workload.Input{}, nil
}

// compute runs the uncached pipeline for one (program, config) pair:
// annotations first (they need only the training or self-profile image),
// then ONE execution of the program that feeds every requested
// configuration — the FSM engine or the per-threshold profile engines, their
// ILP machines, and the shared no-prediction ILP baseline — through one
// evaluation sink, so a T-threshold sweep costs one execution plus
// T·table-update instead of T executions.
func (s *Server) compute(ctx context.Context, p *program.Program, fp string, input workload.Input, req *EvaluateRequest) (*report.Run, error) {
	var (
		ths   []float64
		annos []*annotation
		err   error
	)
	if req.Classifier == "profile" {
		ths = req.sweepThresholds()
		annos = make([]*annotation, len(ths))
		for i, th := range ths {
			if annos[i], err = s.annotation(p, fp, req, th); err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	if err := faults.Inject(PointReplay); err != nil {
		return nil, err
	}
	ev, err := newEvaluation(req, ths, annos)
	if err != nil {
		return nil, err
	}
	cfgs := ev.cfgs
	if s.evalHook != nil {
		cfgs = s.evalHook(cfgs)
	}
	n, err := s.execute(p, cfgs)
	if err != nil {
		return nil, err
	}
	saved := int64(len(ev.cfgs) - 1)
	s.metrics.TraceReplaySaved.Add(saved)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ev.report(p, fp, input, n, saved), nil
}

// evaluation is the set of consumers one job evaluates: one engine per
// threshold (one in all for the FSM classifier), each wrapped in its ILP
// machine when the request times ILP, plus the shared no-prediction ILP
// baseline, as the configurations of one evaluation pass.
type evaluation struct {
	req      *EvaluateRequest
	ths      []float64     // profile classifier: the thresholds, one per engine
	annos    []*annotation // profile classifier: each engine's annotation
	engines  []*vpsim.Engine
	machines []*ilp.Machine // entries stay nil unless req.ILP
	base     *ilp.Machine
	cfgs     []trace.EvalConfig
}

// newEvaluation builds fresh consumers for req; annos (profile classifier
// only) supplies the directive table of each threshold's engine.
func newEvaluation(req *EvaluateRequest, ths []float64, annos []*annotation) (*evaluation, error) {
	n := max(len(annos), 1)
	ev := &evaluation{
		req:      req,
		ths:      ths,
		annos:    annos,
		engines:  make([]*vpsim.Engine, n),
		machines: make([]*ilp.Machine, n),
		cfgs:     make([]trace.EvalConfig, 0, n+1),
	}
	for i := range n {
		store, err := req.newStore()
		if err != nil {
			return nil, err
		}
		if req.Classifier == "profile" {
			ev.engines[i] = vpsim.NewProfileEngine(store)
		} else {
			pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
			if err != nil {
				return nil, err
			}
			ev.engines[i] = vpsim.NewFSMEngine(store, pol)
		}
		var consumer trace.Consumer = ev.engines[i]
		if req.ILP {
			if ev.machines[i], err = ilp.New(ilp.DefaultConfig, ev.engines[i]); err != nil {
				return nil, err
			}
			consumer = ev.machines[i]
		}
		var dirs []isa.Directive
		if annos != nil {
			dirs = annos[i].dirs
		}
		ev.cfgs = append(ev.cfgs, trace.EvalConfig{Dirs: dirs, Consumer: consumer})
	}
	if req.ILP {
		var err error
		if ev.base, err = ilp.New(ilp.DefaultConfig, nil); err != nil {
			return nil, err
		}
		ev.cfgs = append(ev.cfgs, trace.EvalConfig{Consumer: ev.base})
	}
	return ev, nil
}

// report assembles the job's result once every configuration has consumed
// the program's instrs records: the top level mirrors the first
// threshold's run, and a sweep attaches all per-threshold runs.
func (ev *evaluation) report(p *program.Program, fp string, input workload.Input, instrs, saved int64) *report.Run {
	req := ev.req
	var baseRes *ilp.Result
	if ev.base != nil {
		res := ev.base.Result()
		baseRes = &res
	}
	runs := make([]*report.Run, len(ev.engines))
	for i := range runs {
		out := &report.Run{
			Program:      p.Name,
			Fingerprint:  fp,
			Instructions: instrs,
			Classifier:   req.Classifier,
			Predictor:    report.Predictor{Kind: req.Predictor, Entries: *req.Entries, Assoc: req.Assoc},
		}
		if req.Bench != "" {
			out.Input = input.String()
		}
		if ev.annos != nil {
			out.Threshold = ev.ths[i]
			out.SetAnnotation(ev.annos[i].stats)
		}
		if ev.machines[i] != nil {
			out.SetILP(ev.machines[i].Result(), baseRes)
		}
		out.SetStats(ev.engines[i].Stats())
		runs[i] = out
	}
	// Copy rather than alias runs[0] so the Sweep slice does not contain
	// its own parent (which would cycle on marshal).
	res := *runs[0]
	if len(req.Thresholds) > 0 {
		res.Sweep = runs
		res.ReplayPassesSaved = saved
	}
	return &res
}

// execute runs the program once under the server's guest sandbox limits,
// with cfgs attached through one evaluation sink, and returns the retired
// instruction count. /metrics observes it as the job's record stage.
func (s *Server) execute(p *program.Program, cfgs []trace.EvalConfig) (int64, error) {
	t0 := time.Now()
	if err := faults.Inject(PointRecord); err != nil {
		return 0, err
	}
	sink := trace.NewEvalSink(cfgs...)
	defer sink.Close()
	n, err := workload.RunConfig(p, s.vmConfig(), sink)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	s.metrics.TraceRecords.Add(n)
	s.metrics.RecordNanos.Add(d.Nanoseconds())
	s.metrics.ObserveStage(stageRecord, d)
	return n, nil
}

// annotation returns the directive table for a profile-classified run.
// Named benchmarks follow the paper's flow — profile under n disjoint
// training inputs, merge, annotate at the threshold. Submitted programs have
// no input parameterization, so they are self-profiled: one run of the
// program with a profiler attached (documented in DESIGN.md §8).
func (s *Server) annotation(p *program.Program, fp string, req *EvaluateRequest, th float64) (*annotation, error) {
	key := fmt.Sprintf("%s|t%g", fp, th)
	anno, _, err := durableDo(s, s.annos, kindAnnos, key, encodeAnnotation, decodeAnnotation, func() (*annotation, error) {
		t0 := time.Now()
		if err := faults.Inject(PointAnnotate); err != nil {
			return nil, err
		}
		im, err := s.profileImage(p, fp, req)
		if err != nil {
			return nil, err
		}
		opts := annotate.DefaultOptions
		opts.AccuracyThreshold = th
		ap, st, err := annotate.Apply(p, im, opts)
		if err != nil {
			return nil, err
		}
		s.metrics.ObserveStage(stageAnnotate, time.Since(t0))
		return &annotation{dirs: trace.DirsOf(ap.Text), stats: st}, nil
	})
	return anno, err
}

// profileImage produces the merged training profile for a benchmark, or the
// self-profile for a submitted program. Benchmarks key by name — the
// training inputs are fixed, so every evaluation seed of one benchmark
// shares a single merged profile, exactly like the paper's one-image flow.
func (s *Server) profileImage(p *program.Program, fp string, req *EvaluateRequest) (*profiler.Image, error) {
	imageKey := "self/" + fp
	if req.Bench != "" {
		imageKey = "train/" + req.Bench
	}
	im, _, err := durableDo(s, s.images, kindImages, imageKey, encodeImage, decodeImage, func() (*profiler.Image, error) {
		if req.Bench == "" {
			col := profiler.NewCollector()
			if _, err := workload.RunConfig(p, s.vmConfig(), col); err != nil {
				return nil, err
			}
			return col.Image(p.Name, "self"), nil
		}
		ims := make([]*profiler.Image, 0, s.cfg.TrainInputs)
		for _, in := range workload.TrainingInputs(s.cfg.TrainInputs) {
			col := profiler.NewCollector()
			bp, err := workload.Build(req.Bench, in)
			if err != nil {
				return nil, fmt.Errorf("profile %s under %s: %w", req.Bench, in, err)
			}
			if _, err := workload.RunConfig(bp, s.vmConfig(), col); err != nil {
				return nil, fmt.Errorf("profile %s under %s: %w", req.Bench, in, err)
			}
			ims = append(ims, col.Image(req.Bench, in.String()))
		}
		return profiler.Merge(ims...)
	})
	return im, err
}
