package experiments

import (
	"fmt"

	"repro/internal/ilp"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	ExtRegistry = append(ExtRegistry, Runner{
		"ext:sched", "Profile-aware basic-block scheduling on top of value prediction",
		wrap(RunExtSched),
	})
}

// ExtSched measures the paper's second announced extension: basic-block list
// scheduling that uses the profile directives (edges out of tagged
// value-predictable producers cost nothing, steering priority to the
// unpredictable chains). Both configurations run under the same VP+Prof(90%)
// machine; scheduling only changes static order, so any delta is the
// scheduler's contribution on top of value prediction.
type ExtSched struct {
	Rows []ExtSchedRow
}

// ExtSchedRow is one benchmark's scheduling outcome.
type ExtSchedRow struct {
	Bench string
	// Moved is the number of statically reordered instructions under the
	// directive-aware schedule.
	Moved int
	// BaseILP and SchedILP are VP+Prof(90%) ILP without and with
	// directive-aware scheduling on the paper's dataflow machine.
	BaseILP  float64
	SchedILP float64
	// InorderBase and InorderSched repeat the comparison on an in-order
	// 2-wide, 2-cycle-latency machine, where static order actually
	// matters.
	InorderBase  float64
	InorderSched float64
}

// InorderDelta is the in-order scheduling ILP change in percent.
func (r ExtSchedRow) InorderDelta() float64 {
	if r.InorderBase == 0 {
		return 0
	}
	return 100 * (r.InorderSched - r.InorderBase) / r.InorderBase
}

// Delta is the scheduling ILP change in percent.
func (r ExtSchedRow) Delta() float64 {
	if r.BaseILP == 0 {
		return 0
	}
	return 100 * (r.SchedILP - r.BaseILP) / r.BaseILP
}

// inorderCfg is the narrow machine of the scheduling comparison: 2-wide
// in-order issue with 2-cycle operation latency, a plausible 1997 pipeline.
var inorderCfg = ilp.Config{WindowSize: 40, MispredictPenalty: 1, Latency: 2, IssueWidth: 2}

// RunExtSched regenerates the scheduling extension table. The unscheduled
// dataflow ILP is the paper pass's VP+Prof(90%) machine; the annotated
// program's in-order machine replays its stream, and the scheduled program
// runs once with both machines attached.
func RunExtSched(c *Context) (*ExtSched, error) {
	out := &ExtSched{}
	benches := workload.Names()
	out.Rows = make([]ExtSchedRow, len(benches))
	err := c.forEachBench(benches, func(i int, bench string) error {
		p, err := c.paperPass(bench)
		if err != nil {
			return err
		}
		annotated, _, err := c.Annotated(bench, 90)
		if err != nil {
			return err
		}
		scheduled, sst, err := sched.Schedule(annotated, sched.Options{UseDirectives: true})
		if err != nil {
			return err
		}
		var ms [3]*ilp.Machine // in-order unscheduled, dataflow scheduled, in-order scheduled
		for k, cfg := range []ilp.Config{inorderCfg, ilp.DefaultConfig, inorderCfg} {
			if ms[k], err = newProfileMachine(cfg, nil, 0); err != nil {
				return err
			}
		}
		if err := c.RunEvalAnnotated(bench, 90, ms[0]); err != nil {
			return err
		}
		if _, err := workload.Run(scheduled, ms[1], ms[2]); err != nil {
			return err
		}
		out.Rows[i] = ExtSchedRow{Bench: bench, Moved: sst.Moved,
			BaseILP: p.at(90).ILP(), SchedILP: ms[1].Result().ILP(),
			InorderBase: ms[0].Result().ILP(), InorderSched: ms[2].Result().ILP()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ID implements Result.
func (*ExtSched) ID() string { return "ext:sched" }

// Title implements Result.
func (*ExtSched) Title() string {
	return "Extension — directive-aware basic-block scheduling under VP+Prof(90%)"
}

// Render implements Result.
func (e *ExtSched) Render() string {
	tb := stats.NewTable(e.Title(),
		"benchmark", "moved insts",
		"dataflow unsched", "dataflow sched", "delta",
		"in-order unsched", "in-order sched", "delta")
	for _, r := range e.Rows {
		tb.AddRow(r.Bench, r.Moved,
			stats.FormatRatio(r.BaseILP), stats.FormatRatio(r.SchedILP),
			fmt.Sprintf("%+.1f%%", r.Delta()),
			stats.FormatRatio(r.InorderBase), stats.FormatRatio(r.InorderSched),
			fmt.Sprintf("%+.1f%%", r.InorderDelta()))
	}
	return tb.Render()
}
