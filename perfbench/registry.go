package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// registryEnv regenerates every paper and extension artifact, each time
// from a fresh experiments.Context, and compares the renders with the
// committed docs/results.
type registryEnv struct {
	runners []experiments.Runner
	golden  map[string]string // runner ID → committed render
}

// artifactFile is the docs/results file name of an artifact, as vpreport -o
// writes it.
func artifactFile(id string) string {
	return strings.NewReplacer(":", "_", "+", "_").Replace(id) + ".txt"
}

// artifactMetric is the per-layer metric name of an artifact.
func artifactMetric(id string) string {
	return "experiments." + strings.NewReplacer("+", "-", ":", ".").Replace(id) + "_ms"
}

func allRunners() []experiments.Runner {
	return append(append([]experiments.Runner(nil), experiments.Registry...), experiments.ExtRegistry...)
}

// setupRegistry loads the expected renders and assembles every program a
// regeneration runs. workload.Build memoizes programs for the life of the
// process, so without this the first timed regeneration would pay for
// assembly and the later ones would not; after it, every timed
// regeneration starts equally warm. The assembly is timed directly through
// asm.Assemble so each set-up does the same work.
func setupRegistry(uint64) (env, error) {
	e := &registryEnv{runners: allRunners(), golden: map[string]string{}}
	for _, r := range e.runners {
		data, err := os.ReadFile(filepath.Join("docs", "results", artifactFile(r.ID)))
		if err != nil {
			return nil, err
		}
		e.golden[r.ID] = string(data)
	}
	inputs := append(workload.TrainingInputs(experiments.DefaultTrainInputs), workload.EvaluationInput())
	for _, name := range workload.AllNames() {
		spec, _ := workload.ByName(name)
		for _, in := range inputs {
			if _, err := asm.Assemble(name, spec.Source(in)); err != nil {
				return nil, err
			}
			if _, err := workload.Build(name, in); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

func (e *registryEnv) close() {}

func (e *registryEnv) measure(d time.Duration, tr *tracer) (*sample, error) {
	s := &sample{}
	acc := map[string]float64{}
	start := time.Now()
	regens := 0
	for ; regens == 0 || time.Since(start) < d; regens++ {
		ctx := experiments.NewContext()
		ctx.Workers = clients()
		t0 := time.Now()
		root := -1
		if tr != nil {
			root = tr.open("regenerate", -1, int64(regens))
			if err := warmStages(ctx, tr, root, int64(regens), acc); err != nil {
				return nil, err
			}
		}
		var outs []experiments.Outcome
		stageSpan(tr, "experiments.artifacts", root, regens, acc, func() {
			outs = experiments.RunAll(ctx, e.runners, clients())
		})
		stageSpan(tr, "render", root, regens, acc, func() {
			for _, o := range outs {
				s.ops++
				s.lat = append(s.lat, o.Duration)
				if o.Err != nil {
					s.failed++
					fmt.Fprintf(os.Stderr, "%s: %v\n", o.Runner.ID, o.Err)
				} else if o.Result.Render()+"\n" != e.golden[o.Runner.ID] {
					s.failed++
					fmt.Fprintf(os.Stderr, "%s: render differs from docs/results/%s\n", o.Runner.ID, artifactFile(o.Runner.ID))
				}
			}
		})
		s.rounds = append(s.rounds, time.Since(t0))
		if tr != nil {
			tr.close(root)
			acc["unattributed_ms"] += ms(tr.selfTime(root))
			for _, o := range outs {
				acc[artifactMetric(o.Runner.ID)] += ms(o.Duration)
			}
			for _, b := range workload.AllNames() {
				rec, err := ctx.EvalTrace(b)
				if err != nil {
					return nil, err
				}
				acc["trace.replay_passes"] += float64(rec.Passes())
			}
		}
	}
	s.elapsed = time.Since(start)
	if tr != nil {
		s.layers = map[string]metric{}
		for k, v := range acc {
			unit := "ms"
			if !strings.HasSuffix(k, "_ms") {
				unit = "count"
			}
			s.layers[k] = metric{v / float64(regens), unit}
		}
		var wall float64
		for _, r := range s.rounds {
			wall += ms(r)
		}
		s.layers["unattributed_frac"] = metric{acc["unattributed_ms"] / wall, "frac"}
		delete(s.layers, "unattributed_ms")
		if acc["trace.records"] > 0 {
			s.layers["trace.encoded_bytes_per_rec"] = metric{acc["trace.encoded_bytes"] / acc["trace.records"], "B/rec"}
		}
		delete(s.layers, "trace.encoded_bytes")
	}
	return s, nil
}

// stageSpan runs f, under a span named name when tracing, and adds the
// span's duration to acc[name+"_ms"].
func stageSpan(tr *tracer, name string, root, regen int, acc map[string]float64, f func()) {
	if tr == nil {
		f()
		return
	}
	i := tr.open(name, root, int64(regen))
	f()
	acc[name+"_ms"] += ms(tr.close(i))
}

// warmStages fills the Context's memoized pipeline stages one stage at a
// time, under a span per stage and per benchmark, so the artifacts that
// follow run on warm stages and their own time is theirs alone.
func warmStages(ctx *experiments.Context, tr *tracer, root int, regen int64, acc map[string]float64) error {
	primary, all := workload.Names(), workload.AllNames()
	ths := experiments.DefaultThresholds
	stage := func(name string, n int, label func(i int) string, f func(i int) error) error {
		p := tr.open(name, root, regen)
		err := parallel.ForEach(context.Background(), clients(), n, func(_ context.Context, i int) error {
			c := tr.open(name+"/"+label(i), p, regen)
			defer tr.close(c)
			return f(i)
		})
		acc[name+"_ms"] += ms(tr.close(p))
		return err
	}
	byBench := func(bs []string) func(int) string { return func(i int) string { return bs[i] } }
	if err := stage("experiments.train", len(primary), byBench(primary), func(i int) error {
		_, err := ctx.TrainImages(primary[i])
		return err
	}); err != nil {
		return err
	}
	if err := stage("profiler.merge", len(primary), byBench(primary), func(i int) error {
		_, err := ctx.MergedTrainImage(primary[i])
		return err
	}); err != nil {
		return err
	}
	if err := stage("trace.record", len(all), byBench(all), func(i int) error {
		_, err := ctx.EvalTrace(all[i])
		return err
	}); err != nil {
		return err
	}
	if err := stage("profiler.eval", len(all), byBench(all), func(i int) error {
		_, err := ctx.EvalCollector(all[i])
		return err
	}); err != nil {
		return err
	}
	if err := stage("annotate.apply", len(primary)*len(ths),
		func(i int) string { return fmt.Sprintf("%s@%g", primary[i/len(ths)], ths[i%len(ths)]) },
		func(i int) error {
			_, _, err := ctx.Annotated(primary[i/len(ths)], ths[i%len(ths)])
			return err
		}); err != nil {
		return err
	}
	for _, b := range primary {
		for _, th := range ths {
			_, st, err := ctx.Annotated(b, th)
			if err != nil {
				return err
			}
			acc["annotate.candidates"] += float64(st.Candidates())
		}
	}
	for _, b := range all {
		rec, err := ctx.EvalTrace(b)
		if err != nil {
			return err
		}
		acc["trace.records"] += float64(rec.Len())
		acc["trace.encoded_bytes"] += float64(rec.EncodedBytes())
		acc["trace.encode_ms"] += ms(rec.EncodeTime())
		acc["trace.encode_stalls"] += float64(rec.EncodeStalls())
	}
	return nil
}
