package experiments

import (
	"fmt"

	"repro/internal/annotate"
	"repro/internal/ilp"
	"repro/internal/predictor"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

func init() {
	ExtRegistry = append(ExtRegistry,
		Runner{"ext:hybrid", "Hybrid two-table predictor vs monolithic stride table", wrap(RunExtHybrid)},
		Runner{"ext:autotune", "Per-benchmark threshold selection on training data", wrap(RunExtAutotune)},
	)
}

// ExtHybrid completes the paper's Section 6 claim across the whole suite:
// with directives routing instructions, a small stride table plus a cheap
// one-field last-value table (768 value-field slots) competes with the
// monolithic two-field 512-entry stride table (1024 slots). Both run the
// same threshold-90% annotated binaries.
type ExtHybrid struct {
	Rows []ExtHybridRow
}

// ExtHybridRow is one benchmark's comparison.
type ExtHybridRow struct {
	Bench        string
	MonoCorrect  int64
	MonoAccuracy float64
	HybCorrect   int64
	HybAccuracy  float64
	// StrideResidency and LastResidency are the hybrid tables' final
	// entry counts — how the directive split actually used the capacity.
	StrideResidency int
	LastResidency   int
}

// RunExtHybrid regenerates the hybrid extension table.
func RunExtHybrid(c *Context) (*ExtHybrid, error) {
	out := &ExtHybrid{}
	benches := workload.Names()
	out.Rows = make([]ExtHybridRow, len(benches))
	err := c.forEachBench(benches, func(i int, bench string) error {
		// The monolithic table is the paper pass's VP+Prof(90%) engine.
		p, err := c.paperPass(bench)
		if err != nil {
			return err
		}
		mono := p.at(90).Prediction
		row := ExtHybridRow{Bench: bench, MonoCorrect: mono.UsedCorrect, MonoAccuracy: mono.PredictionAccuracy()}

		hy, err := predictor.NewHybrid(predictor.DefaultHybridConfig)
		if err != nil {
			return err
		}
		hyEngine := vpsim.NewHybridEngine(hy)
		if err := c.RunEvalAnnotated(bench, 90, hyEngine); err != nil {
			return err
		}
		row.HybCorrect = hyEngine.Stats().UsedCorrect
		row.HybAccuracy = hyEngine.Stats().PredictionAccuracy()
		row.StrideResidency = hy.StrideTable.Len()
		row.LastResidency = hy.LastTable.Len()
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ID implements Result.
func (*ExtHybrid) ID() string { return "ext:hybrid" }

// Title implements Result.
func (*ExtHybrid) Title() string {
	return "Extension — hybrid (128S+512L, 768 field-slots) vs monolithic stride (512S, 1024 field-slots), threshold 90%"
}

// Render implements Result.
func (e *ExtHybrid) Render() string {
	tb := stats.NewTable(e.Title(),
		"benchmark", "mono correct", "mono acc", "hybrid correct", "hybrid acc", "stride/last entries")
	for _, r := range e.Rows {
		tb.AddRow(r.Bench, r.MonoCorrect, r.MonoAccuracy, r.HybCorrect, r.HybAccuracy,
			fmt.Sprintf("%d/%d", r.StrideResidency, r.LastResidency))
	}
	return tb.Render()
}

// ---------------------------------------------------------------------------

// ExtAutotune implements the tuning loop the paper leaves to the user
// ("the profiling threshold plays the main role in the tuning of our new
// mechanism. By choosing the right threshold…"): for each benchmark, pick
// the threshold that maximizes ILP on the *training* inputs, then evaluate
// that choice on the disjoint evaluation input. Training-selected thresholds
// are honest — no evaluation data leaks into the choice.
type ExtAutotune struct {
	Thresholds []float64
	Rows       []ExtAutotuneRow
}

// ExtAutotuneRow is one benchmark's tuning outcome.
type ExtAutotuneRow struct {
	Bench string
	// Chosen is the threshold with the best training-input ILP.
	Chosen float64
	// TrainGain is the ILP gain the tuner saw on its training input.
	TrainGain float64
	// EvalGain is the gain the chosen threshold delivers on the
	// evaluation input; BestEvalGain is the oracle (best threshold in
	// hindsight), so EvalGain≈BestEvalGain means tuning transfers.
	EvalGain     float64
	BestEvalGain float64
}

// RunExtAutotune regenerates the threshold-tuning extension table.
func RunExtAutotune(c *Context) (*ExtAutotune, error) {
	out := &ExtAutotune{Thresholds: c.Thresholds}
	benches := workload.Names()
	out.Rows = make([]ExtAutotuneRow, len(benches))
	trainInput := workload.TrainingInputs(1)[0]

	err := c.forEachBench(benches, func(i int, bench string) error {
		row := ExtAutotuneRow{Bench: bench}

		// Tuning pass: measure ILP gain per threshold on a training
		// input (annotation also derives from training profiles only).
		// The training program runs once; the baseline and every
		// threshold machine replay its trace in one pass, each threshold
		// under its annotation's directives.
		trainProg, err := workload.Build(bench, trainInput)
		if err != nil {
			return err
		}
		rec := trace.NewRecorder()
		if _, err := workload.Run(trainProg, rec); err != nil {
			return err
		}
		rec.Seal()
		im, err := c.MergedTrainImage(bench)
		if err != nil {
			return err
		}
		baseTrain, err := ilp.New(ilp.DefaultConfig, nil)
		if err != nil {
			return err
		}
		cfgs := []trace.EvalConfig{{Consumer: baseTrain}}
		train := make([]*ilp.Machine, len(c.Thresholds))
		for k, th := range c.Thresholds {
			annotated, err := annotateProgram(trainProg, im, th)
			if err != nil {
				return err
			}
			if train[k], err = newProfileMachine(ilp.DefaultConfig, nil, 0); err != nil {
				return err
			}
			cfgs = append(cfgs, trace.EvalConfig{Dirs: trace.DirsOf(annotated.Text), Consumer: train[k]})
		}
		rec.MultiEval(cfgs...)
		row.TrainGain = -1e18
		for k, th := range c.Thresholds {
			if gain := train[k].Result().SpeedupOver(baseTrain.Result()); gain > row.TrainGain {
				row.TrainGain, row.Chosen = gain, th
			}
		}

		// Evaluation: the chosen threshold vs the hindsight oracle, read
		// from the paper pass.
		p, err := c.paperPass(bench)
		if err != nil {
			return err
		}
		row.BestEvalGain = -1e18
		for _, th := range c.Thresholds {
			gain := p.at(th).SpeedupOver(p.Base.Result)
			if th == row.Chosen {
				row.EvalGain = gain
			}
			if gain > row.BestEvalGain {
				row.BestEvalGain = gain
			}
		}
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// annotateProgram applies the image at a threshold to an arbitrary program
// (the tuner annotates the training binary, which Context does not cache).
func annotateProgram(p *program.Program, im *profiler.Image, th float64) (*program.Program, error) {
	opts := annotate.DefaultOptions
	opts.AccuracyThreshold = th
	out, _, err := annotate.Apply(p, im, opts)
	return out, err
}

// ID implements Result.
func (*ExtAutotune) ID() string { return "ext:autotune" }

// Title implements Result.
func (*ExtAutotune) Title() string {
	return "Extension — per-benchmark threshold tuning on training inputs"
}

// Render implements Result.
func (e *ExtAutotune) Render() string {
	tb := stats.NewTable(e.Title(),
		"benchmark", "chosen th", "train gain", "eval gain (chosen)", "eval gain (oracle)")
	for _, r := range e.Rows {
		tb.AddRow(r.Bench, fmt.Sprintf("%.0f%%", r.Chosen),
			fmt.Sprintf("%+.0f%%", r.TrainGain),
			fmt.Sprintf("%+.0f%%", r.EvalGain),
			fmt.Sprintf("%+.0f%%", r.BestEvalGain))
	}
	return tb.Render()
}
