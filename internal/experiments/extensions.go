package experiments

import (
	"fmt"
	"strings"

	"repro/internal/branch"
	"repro/internal/critpath"
	"repro/internal/ilp"
	"repro/internal/predictor"
	"repro/internal/profiler"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// The extension experiments go beyond the paper's published evaluation,
// following the directions its conclusion announces (critical-path analysis,
// generalization to memory operands) and probing two assumptions of its
// methodology (perfect branch prediction; stride-class predictors only).
// They are registered separately — `vpreport -extensions` — so the paper
// artifacts stay exactly the published set.

// ExtRegistry lists the extension experiments.
var ExtRegistry = []Runner{
	{"ext:critpath", "Dataflow critical path and its profile-certified predictability", wrap(RunExtCritPath)},
	{"ext:branch", "ILP gain under realistic (bimodal) branch prediction", wrap(RunExtBranch)},
	{"ext:fcm", "FCM (context-based) predictor vs stride, per benchmark", wrap(RunExtFCM)},
	{"ext:storeval", "Store-value predictability (memory-operand generalization)", wrap(RunExtStoreValue)},
}

// ---------------------------------------------------------------------------

// ExtCritPath reports, per benchmark, the dataflow-limit ILP, the critical
// path length, and the share of critical-path work that the training profile
// certifies as value-predictable at threshold 90% — the quantity that tells
// a compiler whether value prediction can break this program's dataflow
// limit (paper Section 1 + conclusion).
type ExtCritPath struct {
	Rows []ExtCritPathRow
}

// ExtCritPathRow is one benchmark's critical-path summary.
type ExtCritPathRow struct {
	Bench          string
	Instructions   int64
	PathLength     int64
	DataflowILP    float64
	Predictable    float64 // % of path nodes profile-certified at 90%
	DistinctStatic int     // static instructions appearing on the path
}

// RunExtCritPath regenerates the critical-path extension table.
func RunExtCritPath(c *Context) (*ExtCritPath, error) {
	out := &ExtCritPath{}
	benches := workload.Names()
	out.Rows = make([]ExtCritPathRow, len(benches))
	err := c.forEachBench(benches, func(i int, bench string) error {
		an := critpath.New()
		if err := c.RunEvalPlain(bench, an); err != nil {
			return err
		}
		res := an.Result()
		im, err := c.MergedTrainImage(bench)
		if err != nil {
			return err
		}
		pred, err := critpath.Predictability(res, im, 90)
		if err != nil {
			return err
		}
		out.Rows[i] = ExtCritPathRow{
			Bench:          bench,
			Instructions:   res.Instructions,
			PathLength:     res.Length,
			DataflowILP:    res.DataflowILP(),
			Predictable:    pred,
			DistinctStatic: len(res.Path),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ID implements Result.
func (*ExtCritPath) ID() string { return "ext:critpath" }

// Title implements Result.
func (*ExtCritPath) Title() string {
	return "Extension — dataflow critical path and its profile-certified predictability"
}

// Render implements Result.
func (e *ExtCritPath) Render() string {
	tb := stats.NewTable(e.Title(),
		"benchmark", "instructions", "path length", "dataflow ILP", "path predictable@90", "static insts on path")
	for _, r := range e.Rows {
		tb.AddRow(r.Bench, r.Instructions, r.PathLength,
			stats.FormatRatio(r.DataflowILP), r.Predictable, r.DistinctStatic)
	}
	return tb.Render()
}

// ---------------------------------------------------------------------------

// ExtBranch compares the profile-guided value-prediction ILP gain under the
// paper's perfect branch prediction against a realistic 4K-entry bimodal
// predictor with a 3-cycle redirect penalty: how much of Table 5.2 survives
// real control flow?
type ExtBranch struct {
	Rows []ExtBranchRow
}

// ExtBranchRow is one benchmark's comparison.
type ExtBranchRow struct {
	Bench          string
	BranchAccuracy float64
	PerfectGain    float64 // VP+Prof(90) ILP gain, perfect branches
	BimodalGain    float64 // same, bimodal branches (both sides penalized)
}

// RunExtBranch regenerates the branch-sensitivity extension table.
func RunExtBranch(c *Context) (*ExtBranch, error) {
	const redirectPenalty = 3
	out := &ExtBranch{}
	benches := workload.Names()
	out.Rows = make([]ExtBranchRow, len(benches))
	err := c.forEachBench(benches, func(i int, bench string) error {
		// Perfect branches: the paper pass's baseline and VP+Prof(90%).
		p, err := c.paperPass(bench)
		if err != nil {
			return err
		}
		row := ExtBranchRow{Bench: bench, PerfectGain: p.at(90).SpeedupOver(p.Base.Result)}

		// Bimodal branches on both the baseline and the VP machine, in
		// one pass.
		bpBase, err := branch.New(branch.DefaultConfig)
		if err != nil {
			return err
		}
		realBase, err := ilp.New(ilp.DefaultConfig, nil)
		if err != nil {
			return err
		}
		if err := realBase.UseBranchPredictor(bpBase, redirectPenalty); err != nil {
			return err
		}
		bpVP, err := branch.New(branch.DefaultConfig)
		if err != nil {
			return err
		}
		realVP, err := newProfileMachine(ilp.DefaultConfig, bpVP, redirectPenalty)
		if err != nil {
			return err
		}
		if _, err := c.RunEvalSweep(bench, Plain(realBase), Sweep(90, realVP)); err != nil {
			return err
		}
		row.BimodalGain = realVP.Result().SpeedupOver(realBase.Result())
		row.BranchAccuracy = bpVP.Accuracy()
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// newProfileMachine is a VP+Prof machine of configuration cfg on the
// paper's 512-entry stride table, with an optional branch predictor.
func newProfileMachine(cfg ilp.Config, bp *branch.Predictor, penalty int64) (*ilp.Machine, error) {
	table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
	if err != nil {
		return nil, err
	}
	m, err := ilp.New(cfg, vpsim.NewProfileEngine(table))
	if err != nil {
		return nil, err
	}
	if bp != nil {
		if err := m.UseBranchPredictor(bp, penalty); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ID implements Result.
func (*ExtBranch) ID() string { return "ext:branch" }

// Title implements Result.
func (*ExtBranch) Title() string {
	return "Extension — VP+Prof(90%) ILP gain: perfect vs bimodal branch prediction"
}

// Render implements Result.
func (e *ExtBranch) Render() string {
	tb := stats.NewTable(e.Title(),
		"benchmark", "branch accuracy", "gain (perfect)", "gain (bimodal)")
	for _, r := range e.Rows {
		tb.AddRow(r.Bench, r.BranchAccuracy,
			fmt.Sprintf("%+.0f%%", r.PerfectGain), fmt.Sprintf("%+.0f%%", r.BimodalGain))
	}
	return tb.Render()
}

// ---------------------------------------------------------------------------

// ExtFCM compares an order-4 FCM predictor against the stride predictor per
// benchmark (infinite tables), and measures how much value FCM adds beyond
// stride — whether a profile for a context-based predictor would tag a
// different instruction set.
type ExtFCM struct {
	Rows []ExtFCMRow
}

// ExtFCMRow is one benchmark's FCM-vs-stride comparison.
type ExtFCMRow struct {
	Bench     string
	StrideAcc float64
	FCMAcc    float64
	// FCMOnly is the share of static instructions that are
	// FCM-predictable (≥90%) but not stride-predictable — the headroom a
	// context predictor adds.
	FCMOnly float64
}

// fcmObserver trains an FCM predictor on every produced value; it
// implements both consumer contracts so the evaluation replay runs it as a
// column kernel.
type fcmObserver struct{ fcm *predictor.FCM }

// Consume implements trace.Consumer.
func (o fcmObserver) Consume(r *trace.Record) {
	if r.HasDest {
		o.fcm.Observe(r.Addr, r.Value)
	}
}

// ConsumeBatch implements trace.BatchConsumer.
func (o fcmObserver) ConsumeBatch(b *trace.Batch) {
	flags, addrs, vals := b.Flags, b.Addr, b.Value
	for i, f := range flags {
		if f&trace.FlagHasDest == 0 {
			continue
		}
		o.fcm.Observe(addrs[i], vals[i])
	}
}

// RunExtFCM regenerates the FCM extension table.
func RunExtFCM(c *Context) (*ExtFCM, error) {
	out := &ExtFCM{}
	benches := workload.Names()
	out.Rows = make([]ExtFCMRow, len(benches))
	err := c.forEachBench(benches, func(i int, bench string) error {
		fcm, err := predictor.NewFCM(4)
		if err != nil {
			return err
		}
		if err := c.RunEvalPlain(bench, fcmObserver{fcm}); err != nil {
			return err
		}
		col, err := c.EvalCollector(bench)
		if err != nil {
			return err
		}
		att, corr := fcm.Totals()
		row := ExtFCMRow{Bench: bench, FCMAcc: stats.Pct(corr, att)}

		fcmAcc := make(map[int64]float64)
		fcm.ForEachInst(func(s predictor.FCMInstStat) {
			if s.Attempts > 0 {
				fcmAcc[s.Addr] = s.Accuracy()
			}
		})
		var strideCorr, strideAtt int64
		var static, fcmOnly int
		col.ForEach(func(s *profiler.InstStat) {
			if s.TotalAttempts() == 0 {
				return
			}
			static++
			strideAtt += s.TotalAttempts()
			strideCorr += s.TotalCorrectStride()
			if fcmAcc[s.Addr] >= 90 && s.Accuracy() < 90 {
				fcmOnly++
			}
		})
		row.StrideAcc = stats.Pct(strideCorr, strideAtt)
		if static > 0 {
			row.FCMOnly = 100 * float64(fcmOnly) / float64(static)
		}
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ID implements Result.
func (*ExtFCM) ID() string { return "ext:fcm" }

// Title implements Result.
func (*ExtFCM) Title() string {
	return "Extension — order-4 FCM vs stride predictor (infinite tables)"
}

// Render implements Result.
func (e *ExtFCM) Render() string {
	tb := stats.NewTable(e.Title(), "benchmark", "stride acc", "FCM acc", "FCM-only insts")
	for _, r := range e.Rows {
		tb.AddRow(r.Bench, r.StrideAcc, r.FCMAcc, r.FCMOnly)
	}
	return tb.Render()
}

// ---------------------------------------------------------------------------

// ExtStoreValue measures stored-value predictability per benchmark — the
// paper's "memory storage operands" generalization.
type ExtStoreValue struct {
	Rows []ExtStoreValueRow
}

// ExtStoreValueRow is one benchmark's store-value profile summary.
type ExtStoreValueRow struct {
	Bench        string
	StaticStores int
	Attempts     int64
	StrideAcc    float64
	LastAcc      float64
	// Predictable90 is the share of static stores above 90% accuracy —
	// the set a store-value annotation pass would tag.
	Predictable90 float64
}

// RunExtStoreValue regenerates the store-value extension table.
func RunExtStoreValue(c *Context) (*ExtStoreValue, error) {
	out := &ExtStoreValue{}
	benches := workload.Names()
	out.Rows = make([]ExtStoreValueRow, len(benches))
	err := c.forEachBench(benches, func(i int, bench string) error {
		sc := profiler.NewStoreCollector()
		if err := c.RunEvalPlain(bench, sc); err != nil {
			return err
		}
		var att, corrS, corrL int64
		var static, predictable int
		sc.ForEach(func(s *profiler.InstStat) {
			static++
			att += s.TotalAttempts()
			corrS += s.TotalCorrectStride()
			corrL += s.TotalCorrectLast()
			if s.TotalAttempts() > 0 && s.Accuracy() >= 90 {
				predictable++
			}
		})
		row := ExtStoreValueRow{
			Bench:        bench,
			StaticStores: static,
			Attempts:     att,
			StrideAcc:    stats.Pct(corrS, att),
			LastAcc:      stats.Pct(corrL, att),
		}
		if static > 0 {
			row.Predictable90 = 100 * float64(predictable) / float64(static)
		}
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ID implements Result.
func (*ExtStoreValue) ID() string { return "ext:storeval" }

// Title implements Result.
func (*ExtStoreValue) Title() string {
	return "Extension — store-value predictability (memory-operand generalization)"
}

// Render implements Result.
func (e *ExtStoreValue) Render() string {
	tb := stats.NewTable(e.Title(),
		"benchmark", "static stores", "attempts", "S", "L", "stores ≥90%")
	for _, r := range e.Rows {
		tb.AddRow(r.Bench, r.StaticStores, r.Attempts, r.StrideAcc, r.LastAcc, r.Predictable90)
	}
	var b strings.Builder
	b.WriteString(tb.Render())
	return b.String()
}
