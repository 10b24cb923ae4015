// Package server implements vpserve, the profiling-as-a-service daemon: a
// JSON HTTP API over the repository's profile → classify → annotate →
// evaluate pipeline. Submitted work flows through a bounded job queue into a
// worker pool; results, profile images and annotations are memoized in
// fingerprint-keyed LRU caches with single-flight deduplication, and a job
// that misses the result cache executes its program once, feeding every
// requested configuration as the program runs.
//
// Endpoints:
//
//	GET  /healthz            liveness (200 for the whole process lifetime)
//	GET  /readyz             readiness (503 the moment SIGTERM drain begins)
//	GET  /metrics            queue depth, cache hit rates, latency histograms
//	POST /v1/programs        submit an assembly source or .vpimg (base64)
//	GET  /v1/programs/{id}   describe a submitted program
//	POST /v1/jobs            enqueue an evaluate job (async)
//	GET  /v1/jobs/{id}       poll job status / fetch result
//	POST /v1/evaluate        enqueue and wait (sync convenience)
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/faults"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Config sizes the daemon. Zero values take the documented defaults.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue (default 64).
	QueueDepth int
	// RequestTimeout bounds one job from enqueue to completion,
	// queue wait included (default 60s).
	RequestTimeout time.Duration
	// TrainInputs is n, the number of training inputs profiled for
	// profile-classified benchmark runs (default 5, the paper's n).
	TrainInputs int
	// ResultCache bounds the result LRU cache, in entries (default 1024).
	ResultCache int
	// StateDir, when set, enables the durability layer (DESIGN.md §13): a
	// persistent artifact store under this directory backing every cache,
	// plus a write-ahead job journal. Empty (the default) keeps all state
	// in memory.
	StateDir string
	// JournalPath overrides the job-journal location (default
	// StateDir/jobs.journal). Ignored when StateDir is empty.
	JournalPath string
	// SweepCheckpoint is how many sweep thresholds one journaled checkpoint
	// chunk covers (default 4); sweeps longer than one chunk resume from
	// their last completed chunk after a crash. Negative disables
	// checkpointing. Ignored when StateDir is empty.
	SweepCheckpoint int
	// Logf receives durability-layer diagnostics (quarantines, recovery,
	// persistence failures). Default log.Printf.
	Logf func(string, ...any)
	// Limits sandboxes guest execution (evaluation and profiling runs).
	// A zero value takes DefaultLimits; set a field to -1 to disable that
	// limit (the vm treats non-positive limits as unlimited).
	Limits vm.Limits
}

// Fixed sizes of the LRU caches no deployment tunes, in entries, and of the
// finished-job registry.
const (
	imageCacheSize   = 64
	annoCacheSize    = 256
	programCacheSize = 128
	maxJobs          = 4096
)

// DefaultLimits is the guest sandbox vpserve applies when Config.Limits is
// zero: generous enough that every synthetic benchmark runs untouched (their
// default memory image — data plus vm.DefaultExtraMem heap words — stays far
// below MaxMem, so clamping never alters a benchmark's stack placement or
// its trace), tight enough that an uploaded runaway program cannot pin a
// worker.
var DefaultLimits = vm.Limits{
	MaxSteps:       100_000_000,
	MaxMem:         1 << 24, // words (128 MiB)
	MaxTraceEvents: 100_000_000,
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.Workers, runtime.GOMAXPROCS(0))
	def(&c.QueueDepth, 64)
	def(&c.TrainInputs, workloadDefaultTrainInputs)
	def(&c.ResultCache, 1024)
	def(&c.SweepCheckpoint, 4)
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Limits == (vm.Limits{}) {
		c.Limits = DefaultLimits
	}
	return c
}

// vmConfig is the machine configuration for guest executions (evaluation
// and profiling runs), carrying the sandbox limits.
func (s *Server) vmConfig() vm.Config { return vm.Config{Limits: s.cfg.Limits} }

// workloadDefaultTrainInputs mirrors experiments.DefaultTrainInputs without
// importing the experiments package (which would pull every paper driver
// into the server binary).
const workloadDefaultTrainInputs = 5

// Server is the daemon state. Create with New, serve via Handler, stop with
// Shutdown.
type Server struct {
	cfg     Config
	pool    *pool
	metrics *Metrics

	results  *Cache[*report.Run]
	images   *Cache[*profiler.Image]
	annos    *Cache[*annotation]
	programs *Cache[*program.Program]

	// dur is the durability layer; nil when Config.StateDir is empty.
	dur *durability

	// evalHook, when set before the first job, amends each job's evaluation
	// configurations before the execution (tests attach their own consumers).
	evalHook func([]trace.EvalConfig) []trace.EvalConfig

	mux *http.ServeMux

	// draining flips the readiness endpoint to 503. It is set by BeginDrain
	// (called by Shutdown, and by cmd/vpserve the moment SIGTERM arrives)
	// strictly before job intake closes, so a cluster coordinator probing
	// /readyz stops routing new work to this node while queued and in-flight
	// jobs are still completing.
	draining atomic.Bool

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // insertion order, for bounded retention
	nextID int64
}

// New builds a Server and starts its worker pool. It panics if the
// configured state directory cannot be opened; daemons that want to surface
// that as an error use Open.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a Server, opening the durability layer (artifact store + job
// journal) when Config.StateDir is set and re-enqueuing every journaled job
// the previous incarnation accepted but did not finish.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var (
		dur  *durability
		plan []*recoveredJob
	)
	if cfg.StateDir != "" {
		var err error
		if dur, plan, err = openDurability(cfg); err != nil {
			return nil, err
		}
	}
	s := &Server{
		dur:      dur,
		cfg:      cfg,
		metrics:  NewMetrics(),
		results:  NewCache[*report.Run](cfg.ResultCache),
		images:   NewCache[*profiler.Image](imageCacheSize),
		annos:    NewCache[*annotation](annoCacheSize),
		programs: NewCache[*program.Program](programCacheSize),
		jobs:     make(map[string]*job),
	}
	// Cache fills run guest-adjacent code; recovered fill panics count as
	// recovered worker panics (the waiters see a *PanicError).
	onPanic := func() { s.metrics.PanicsRecovered.Add(1) }
	s.results.OnPanic = onPanic
	s.images.OnPanic = onPanic
	s.annos.OnPanic = onPanic
	s.programs.OnPanic = onPanic
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.run)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/programs", s.handleSubmitProgram)
	s.mux.HandleFunc("GET /v1/programs/{id}", s.handleGetProgram)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.recoverJobs(plan)
	return s, nil
}

// recoverJobs re-enqueues journaled-but-unfinished jobs from a previous
// incarnation, preserving their ids (pollers from before the restart keep
// working) and advancing the id counter past everything the journal ever
// named so new jobs never collide with old ones.
func (s *Server) recoverJobs(plan []*recoveredJob) {
	for _, rj := range plan {
		s.mu.Lock()
		if rj.maxSeen > s.nextID {
			s.nextID = rj.maxSeen
		}
		s.mu.Unlock()

		req := rj.req
		req.Normalize()
		if err := req.Validate(); err != nil {
			s.dur.logf("durable: dropping recovered job %s: %v", rj.id, err)
			s.dur.jobFinished(rj.id)
			continue
		}
		ctx, cancel := context.WithTimeout(s.pool.baseCtx, s.cfg.RequestTimeout)
		j := &job{
			id:       rj.id,
			req:      req,
			ctx:      ctx,
			cancel:   cancel,
			enqueued: time.Now(),
			done:     make(chan struct{}),
		}
		s.mu.Lock()
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.evictJobsLocked()
		s.mu.Unlock()
		if err := s.pool.submit(j); err != nil {
			// Queue full at startup can only mean a tiny queue and a huge
			// journal; fail the job visibly rather than dropping it silently.
			j.err = fmt.Errorf("recovered job not re-enqueued: %w", err)
			cancel()
			close(j.done)
			s.metrics.JobsFailed.Add(1)
			s.dur.jobFinished(j.id)
			continue
		}
		s.dur.recoveredJobs.Add(1)
		s.dur.logf("durable: re-enqueued job %s after restart", j.id)
	}
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips readiness to 503 without touching intake: /readyz starts
// failing while /healthz, the job endpoints, and the worker pool keep
// serving. Callers (Shutdown, the SIGTERM path in cmd/vpserve) invoke it
// strictly before closing the queue so load balancers observe "not ready"
// before a single request can be refused. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the queue gracefully: readiness flips first, then intake
// stops, and queued and in-flight jobs complete. If ctx expires first,
// in-flight jobs are cancelled via their context and the error reports the
// hard abort.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	err := s.pool.shutdown(ctx)
	// Close the journal only after the drain: in-flight jobs journal their
	// completions right up to the end, so a clean stop leaves a journal with
	// no incomplete entries and the next start recovers nothing.
	s.dur.close()
	return err
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// rejectValidation writes an error response for input the server refused up
// front (malformed JSON, bad image bytes, invalid parameters) and counts it.
func (s *Server) rejectValidation(w http.ResponseWriter, code int, err error) {
	s.metrics.ValidationRejections.Add(1)
	writeError(w, code, err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := MetricsSnapshot{
		QueueDepth:    s.pool.depth(),
		QueueCapacity: s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		WorkersBusy:   s.metrics.WorkersBusy.Load(),
		JobsCompleted: s.metrics.JobsCompleted.Load(),
		JobsFailed:    s.metrics.JobsFailed.Load(),
		JobsRejected:  s.metrics.JobsRejected.Load(),
		JobsTimedOut:  s.metrics.JobsTimedOut.Load(),

		PanicsRecovered:      s.metrics.PanicsRecovered.Load(),
		FuelExhausted:        s.metrics.FuelExhausted.Load(),
		ValidationRejections: s.metrics.ValidationRejections.Load(),

		TraceReplayPassesSaved: s.metrics.TraceReplaySaved.Load(),
		FaultsInjected:         int64(faults.Fired()),
		FaultPoints:            faults.Snapshot(),
		Caches: map[string]CacheStats{
			"results":  s.results.Stats(),
			"images":   s.images.Stats(),
			"annos":    s.annos.Stats(),
			"programs": s.programs.Stats(),
		},
		Stages: make(map[string]HistogramSnapshot, len(stageNames)),
	}
	if ns := s.metrics.RecordNanos.Load(); ns > 0 {
		snap.RecordMinstrPerS = float64(s.metrics.TraceRecords.Load()) * 1e3 / float64(ns)
	}
	for _, name := range stageNames {
		snap.Stages[name] = s.metrics.Stage(name).Snapshot()
	}
	if s.dur != nil {
		snap.Durable = s.dur.snapshot()
	}
	writeJSON(w, http.StatusOK, snap)
}

// SubmitProgramRequest is the body of POST /v1/programs. Exactly one of
// Source (assembly text, assembled server-side via internal/asm) or
// ImageBase64 (a serialized .vpimg) must be set.
type SubmitProgramRequest struct {
	// Name labels an assembly submission (default "uploaded").
	Name        string `json:"name,omitempty"`
	Source      string `json:"source,omitempty"`
	ImageBase64 string `json:"image_base64,omitempty"`
}

// ProgramInfo describes a registered program.
type ProgramInfo struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Instructions int    `json:"instructions"`
	DataWords    int    `json:"data_words"`
}

func (s *Server) handleSubmitProgram(w http.ResponseWriter, r *http.Request) {
	var req SubmitProgramRequest
	if err := decodeJSON(r, &req); err != nil {
		s.rejectValidation(w, http.StatusBadRequest, err)
		return
	}
	if (req.Source == "") == (req.ImageBase64 == "") {
		s.rejectValidation(w, http.StatusBadRequest, errors.New("exactly one of \"source\" or \"image_base64\" must be set"))
		return
	}
	var p *program.Program
	var err error
	if req.Source != "" {
		name := req.Name
		if name == "" {
			name = "uploaded"
		}
		p, err = asm.Assemble(name, req.Source)
	} else {
		var raw []byte
		if raw, err = base64.StdEncoding.DecodeString(req.ImageBase64); err == nil {
			// Strict bounds-checked decode: section sizes are validated
			// against the upload's actual size before anything is
			// allocated, and truncation/corruption report typed errors.
			p, err = program.ReadBytes(raw)
		}
	}
	if err != nil {
		s.rejectValidation(w, http.StatusUnprocessableEntity, err)
		return
	}
	fp, err := workload.FingerprintOf(p)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Register through the cache's single-flight: identical concurrent
	// submissions converge on one stored image. With a state dir the image
	// also lands on disk, so submitted programs survive a restart.
	stored, _, err := s.programs.Do(fp, func() (*program.Program, error) {
		if s.dur != nil {
			if data, encErr := encodeProgram(p); encErr == nil {
				if perr := s.dur.store.Put(kindPrograms, fp, data); perr != nil {
					s.dur.logf("durable: persist program %s: %v", fp, perr)
				}
			}
		}
		return p, nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, ProgramInfo{
		ID:           fp,
		Name:         stored.Name,
		Instructions: len(stored.Text),
		DataWords:    len(stored.Data),
	})
}

func (s *Server) handleGetProgram(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p, ok := s.programByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown program %q", id))
		return
	}
	writeJSON(w, http.StatusOK, ProgramInfo{
		ID:           id,
		Name:         p.Name,
		Instructions: len(p.Text),
		DataWords:    len(p.Data),
	})
}

// JobResponse is the status envelope of /v1/jobs and /v1/evaluate.
type JobResponse struct {
	ID       string      `json:"id"`
	Status   JobStatus   `json:"status"`
	CacheHit bool        `json:"cache_hit,omitempty"`
	QueuedMS float64     `json:"queued_ms,omitempty"`
	RunMS    float64     `json:"run_ms,omitempty"`
	Result   *report.Run `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
}

func (s *Server) jobResponse(j *job) JobResponse {
	resp := JobResponse{ID: j.id, Status: j.Status()}
	switch resp.Status {
	case StatusDone:
		resp.Result = j.result
		resp.CacheHit = j.cacheHit
	case StatusFailed:
		resp.Error = j.err.Error()
	}
	if started, finished := j.times(); !started.IsZero() {
		resp.QueuedMS = ms(started.Sub(j.enqueued))
		if !finished.IsZero() {
			resp.RunMS = ms(finished.Sub(started))
		}
	}
	return resp
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newJob validates, registers and enqueues a request.
func (s *Server) newJob(req EvaluateRequest) (*job, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(s.pool.baseCtx, s.cfg.RequestTimeout)
	j := &job{
		req:      req,
		ctx:      ctx,
		cancel:   cancel,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	s.mu.Lock()
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictJobsLocked()
	s.mu.Unlock()

	// Write-ahead: the accept entry must be durable before the submit is
	// acknowledged, or a crash after the ack would silently drop the job. A
	// failed append therefore rejects the submit — nothing durable records
	// it, so the client knows to retry elsewhere.
	if err := s.dur.appendEntry(journalEntry{Type: "accept", ID: j.id, Req: &j.req}); err != nil {
		cancel()
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrJournal, err)
	}

	if err := s.pool.submit(j); err != nil {
		s.metrics.JobsRejected.Add(1)
		cancel()
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		return nil, err
	}
	return j, nil
}

// evictJobsLocked drops the oldest finished jobs beyond maxJobs. Active jobs
// are never dropped.
func (s *Server) evictJobsLocked() {
	for len(s.order) > maxJobs {
		dropped := false
		for i, id := range s.order {
			j, ok := s.jobs[id]
			if !ok {
				s.order = append(s.order[:i], s.order[i+1:]...)
				dropped = true
				break
			}
			select {
			case <-j.done:
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				dropped = true
			default:
				continue
			}
			break
		}
		if !dropped {
			return // everything retained is still active
		}
	}
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := decodeJSON(r, &req); err != nil {
		s.rejectValidation(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.newJob(req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.jobResponse(j))
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, s.jobResponse(j))
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := decodeJSON(r, &req); err != nil {
		s.rejectValidation(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.newJob(req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	if err := j.Wait(r.Context()); err != nil {
		// Client went away; the job keeps running and lands in the cache.
		writeError(w, http.StatusRequestTimeout, err)
		return
	}
	resp := s.jobResponse(j)
	if resp.Status == StatusFailed {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(j.err, context.DeadlineExceeded) || errors.Is(j.err, context.Canceled):
			code = http.StatusGatewayTimeout
		case isLimitError(j.err):
			// The guest exceeded its sandbox — the request is at fault,
			// and retrying the identical program cannot succeed.
			code = http.StatusUnprocessableEntity
		}
		writeJSON(w, code, resp)
		return
	}
	if resp.CacheHit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeSubmitError maps submission failures: queue pressure and a wedged job
// journal → 503 (retryable, ideally against another node), validation → 400.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown) || errors.Is(err, ErrJournal) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.rejectValidation(w, http.StatusBadRequest, err)
}

// decodeJSON strictly decodes a request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
