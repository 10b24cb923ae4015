// Package experiments contains one driver per table and figure of the
// paper's evaluation, built on the pipeline the paper describes: train
// (profile under n training inputs) → annotate (threshold directives) →
// evaluate (run under a disjoint input against the FSM baseline and the
// profile-guided configurations). The drivers are shared by cmd/vpreport and
// the repository's benchmark harness.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/annotate"
	"repro/internal/isa"
	"repro/internal/parallel"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workload"
)

// DefaultThresholds are the profiling thresholds the paper sweeps.
var DefaultThresholds = []float64{90, 80, 70, 60, 50}

// DefaultTrainInputs is the paper's n=5 distinct profile inputs.
const DefaultTrainInputs = 5

// Context carries experiment configuration and memoizes the expensive
// pipeline stages (training profiles, evaluation collectors, annotated
// programs) across experiments — the same way the paper's tool flow reuses
// one profile image for every threshold.
//
// Concurrency: a Context is safe for unrestricted concurrent use. Each cache
// is a map of single-flight cells — the mutex guards only map access, and a
// per-key sync.Once makes the first caller compute while concurrent callers
// for the same key block and share the one result (instead of racing to
// duplicate the work, as the earlier check-then-fill scheme allowed). The
// memoized values are published through the Once (a happens-before edge) and
// are immutable afterwards: profile images are never written after
// construction, annotated programs are fresh clones, and trace recorders are
// Sealed before they are cached, so a latent Consume on a shared recorder
// panics instead of racing. Replay hands records to consumers by pointer
// into the shared buffer under a strict read-only contract; the -race stress
// test in context_race_test.go drives every memoized path from many
// goroutines to prove the contract holds end to end.
type Context struct {
	// NumTrainInputs is n, the number of training inputs profiled.
	NumTrainInputs int
	// Thresholds is the accuracy-threshold sweep.
	Thresholds []float64
	// Workers bounds the per-benchmark fan-out inside one artifact
	// (0 selects parallel.DefaultLimit, 1 runs strictly sequentially).
	// Results are deterministic for any value — every work item writes
	// only its own index-addressed slot and all floating-point reductions
	// happen after the fan-out, in fixed benchmark order.
	Workers int
	// TraceMemBudget bounds the encoded bytes each recorded evaluation
	// trace keeps resident in memory; chunks past the budget spill to a
	// temporary file and stream back during replay. ≤ 0 keeps traces fully
	// resident. Replay results are bit-identical either way — the budget
	// trades replay bandwidth for memory, never accuracy.
	TraceMemBudget int64

	mu         sync.Mutex
	trainCache map[string]*cell[[]*profiler.Image]
	mergeCache map[string]*cell[*profiler.Image]
	evalCache  map[string]*cell[*profiler.Collector]
	annoCache  map[annoKey]*cell[*annotated]
	dirsCache  map[annoKey]*cell[[]isa.Directive]
	traceCache map[string]*cell[*trace.Recorder]
}

type annoKey struct {
	bench string
	th    float64
}

type annotated struct {
	prog  *program.Program
	stats annotate.Stats
}

// cell is one single-flight memoization slot: the first caller computes
// under the Once, everyone else blocks on it and shares the result. Errors
// are memoized too — the pipeline stages are deterministic in their inputs,
// so a failure would only repeat.
type cell[V any] struct {
	once sync.Once
	val  V
	err  error
}

// memoize returns m[key], computing it exactly once across concurrent
// callers. mu must guard m.
func memoize[K comparable, V any](mu *sync.Mutex, m map[K]*cell[V], key K, f func() (V, error)) (V, error) {
	mu.Lock()
	c, ok := m[key]
	if !ok {
		c = &cell[V]{}
		m[key] = c
	}
	mu.Unlock()
	c.once.Do(func() { c.val, c.err = f() })
	return c.val, c.err
}

// NewContext returns a Context with the paper's defaults.
func NewContext() *Context {
	return &Context{
		NumTrainInputs: DefaultTrainInputs,
		Thresholds:     DefaultThresholds,
		trainCache:     make(map[string]*cell[[]*profiler.Image]),
		mergeCache:     make(map[string]*cell[*profiler.Image]),
		evalCache:      make(map[string]*cell[*profiler.Collector]),
		annoCache:      make(map[annoKey]*cell[*annotated]),
		dirsCache:      make(map[annoKey]*cell[[]isa.Directive]),
		traceCache:     make(map[string]*cell[*trace.Recorder]),
	}
}

// TrainImages profiles the benchmark under each training input (phase 2 of
// figure 3.1, repeated n times) and returns the per-run profile images.
func (c *Context) TrainImages(bench string) ([]*profiler.Image, error) {
	return memoize(&c.mu, c.trainCache, bench, func() ([]*profiler.Image, error) {
		inputs := workload.TrainingInputs(c.NumTrainInputs)
		ims := make([]*profiler.Image, len(inputs))
		for i, in := range inputs {
			col := profiler.NewCollector()
			if _, err := workload.BuildAndRun(bench, in, col); err != nil {
				return nil, fmt.Errorf("experiments: profile %s under %s: %w", bench, in, err)
			}
			ims[i] = col.Image(bench, in.String())
		}
		return ims, nil
	})
}

// MergedTrainImage condenses the n training profiles into the single image
// handed to the compiler.
func (c *Context) MergedTrainImage(bench string) (*profiler.Image, error) {
	return memoize(&c.mu, c.mergeCache, bench, func() (*profiler.Image, error) {
		ims, err := c.TrainImages(bench)
		if err != nil {
			return nil, err
		}
		return profiler.Merge(ims...)
	})
}

// EvalTrace runs the benchmark's unannotated program under the evaluation
// input exactly once and memoizes the recorded dynamic instruction stream.
// Every evaluation-side experiment (the threshold sweep and each
// prediction-engine comparison) replays this stream instead of
// re-interpreting the program per configuration — the record-once/
// replay-many cache that makes the multi-threshold drivers cheap.
func (c *Context) EvalTrace(bench string) (*trace.Recorder, error) {
	return memoize(&c.mu, c.traceCache, bench, func() (*trace.Recorder, error) {
		rec := trace.NewRecorder()
		rec.SetMemBudget(c.TraceMemBudget)
		if _, err := workload.BuildAndRun(bench, workload.EvaluationInput(), rec); err != nil {
			return nil, fmt.Errorf("experiments: record %s evaluation trace: %w", bench, err)
		}
		// Seal before publication: the recorder is shared by every
		// replaying goroutine from here on, and a stray Consume must
		// panic rather than race.
		rec.Seal()
		return rec, nil
	})
}

// EvalCollector profiles the benchmark under the evaluation input — the
// "real user input" disjoint from every training input. Table 2.1 and
// figures 2.2/2.3 read it directly; other experiments re-run the evaluation
// input through prediction engines. The profile is built by replaying the
// recorded evaluation trace.
func (c *Context) EvalCollector(bench string) (*profiler.Collector, error) {
	return memoize(&c.mu, c.evalCache, bench, func() (*profiler.Collector, error) {
		rec, err := c.EvalTrace(bench)
		if err != nil {
			return nil, err
		}
		col := profiler.NewCollector()
		rec.Replay(col)
		return col, nil
	})
}

// Annotated returns the benchmark's program annotated at the given accuracy
// threshold from the merged training profile, plus the tagging statistics.
func (c *Context) Annotated(bench string, threshold float64) (*program.Program, annotate.Stats, error) {
	a, err := memoize(&c.mu, c.annoCache, annoKey{bench, threshold}, func() (*annotated, error) {
		im, err := c.MergedTrainImage(bench)
		if err != nil {
			return nil, err
		}
		p, err := workload.Build(bench, workload.EvaluationInput())
		if err != nil {
			return nil, err
		}
		opts := annotate.DefaultOptions
		opts.AccuracyThreshold = threshold
		ap, st, err := annotate.Apply(p, im, opts)
		if err != nil {
			return nil, err
		}
		return &annotated{prog: ap, stats: st}, nil
	})
	if err != nil {
		return nil, annotate.Stats{}, err
	}
	return a.prog, a.stats, nil
}

// RunEvalPlain feeds the consumers the benchmark's evaluation-input
// instruction stream — a replay of the recorded trace, bit-identical to
// re-executing the unannotated program.
func (c *Context) RunEvalPlain(bench string, consumers ...trace.Consumer) error {
	rec, err := c.EvalTrace(bench)
	if err != nil {
		return err
	}
	rec.Replay(consumers...)
	return nil
}

// annotatedDirs memoizes the per-address directive table of the annotated
// text at (bench, threshold). Every sweep configuration and every replayed
// engine comparison needs the same table; extracting it per call allocated a
// directive slice per benchmark × threshold × experiment (a measurable slice
// of the Figure 5.1/5.2 allocation profile). The table is immutable after
// construction, like every other memoized artifact.
func (c *Context) annotatedDirs(bench string, threshold float64) ([]isa.Directive, error) {
	return memoize(&c.mu, c.dirsCache, annoKey{bench, threshold}, func() ([]isa.Directive, error) {
		p, _, err := c.Annotated(bench, threshold)
		if err != nil {
			return nil, err
		}
		return trace.DirsOf(p.Text), nil
	})
}

// RunEvalAnnotated feeds the consumers the threshold-annotated program's
// evaluation-input stream. Annotation changes only directive bits — no code
// motion — so this replays the recorded plain trace with the annotated
// text's directives patched in, bit-identical to re-executing the annotated
// program.
func (c *Context) RunEvalAnnotated(bench string, threshold float64, consumers ...trace.Consumer) error {
	dirs, err := c.annotatedDirs(bench, threshold)
	if err != nil {
		return err
	}
	rec, err := c.EvalTrace(bench)
	if err != nil {
		return err
	}
	rec.ReplayDirs(dirs, consumers...)
	return nil
}

// forEachBench runs f once per benchmark on the Context's bounded worker
// pool, with i the benchmark's position (so drivers can fill order-stable
// result slices). The heavy drivers use it to spread the per-benchmark
// simulations across cores; all Context caches are safe for concurrent use.
// With Workers = 1 the benchmarks run strictly sequentially in order.
func (c *Context) forEachBench(benches []string, f func(i int, bench string) error) error {
	return parallel.ForEach(context.Background(), c.Workers, len(benches),
		func(_ context.Context, i int) error { return f(i, benches[i]) })
}

// SweepConfig is one configuration of a single-pass evaluation sweep: a
// consumer plus the annotation threshold whose directives it observes
// (Plain = true replays the unannotated stream, for FSM baselines and
// no-prediction ILP machines).
type SweepConfig struct {
	Plain     bool
	Threshold float64
	Consumer  trace.Consumer
}

// Sweep marks cfg as a threshold configuration.
func Sweep(th float64, c trace.Consumer) SweepConfig {
	return SweepConfig{Threshold: th, Consumer: c}
}

// Plain marks cfg as an unannotated-stream configuration.
func Plain(c trace.Consumer) SweepConfig { return SweepConfig{Plain: true, Consumer: c} }

// RunEvalSweep feeds every configuration the benchmark's evaluation-input
// instruction stream in ONE pass over the recorded trace: plain
// configurations see the unannotated stream (as RunEvalPlain), threshold
// configurations see the stream under that threshold's annotation
// directives (as RunEvalAnnotated). This is the single-pass sweep that
// turns the threshold-sweep drivers from O(configs × replay) into
// O(replay + configs × table-update); per-configuration results are
// bit-identical to separate replays. It returns the number of replay
// passes saved versus one replay per configuration.
func (c *Context) RunEvalSweep(bench string, cfgs ...SweepConfig) (int64, error) {
	rec, err := c.EvalTrace(bench)
	if err != nil {
		return 0, err
	}
	evals := make([]trace.EvalConfig, len(cfgs))
	for i, cfg := range cfgs {
		ec := trace.EvalConfig{Consumer: cfg.Consumer}
		if !cfg.Plain {
			dirs, err := c.annotatedDirs(bench, cfg.Threshold)
			if err != nil {
				return 0, err
			}
			ec.Dirs = dirs
		}
		evals[i] = ec
	}
	return rec.MultiEval(evals...), nil
}

// Result is one regenerated paper artifact.
type Result interface {
	// ID is the experiment identifier ("table2.1", "fig5.3", …).
	ID() string
	// Title describes the artifact.
	Title() string
	// Render formats the artifact as text.
	Render() string
}
