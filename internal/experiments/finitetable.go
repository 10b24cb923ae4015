package experiments

import (
	"fmt"
	"strings"

	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FiniteTable reproduces figures 5.3 and 5.4: with a finite 512-entry 2-way
// set-associative stride prediction table, the change in the number of
// correct predictions (5.3) and incorrect predictions (5.4) achieved by the
// profile-guided classifier relative to the saturating-counter baseline.
// This is where allocation filtering pays: large-working-set benchmarks keep
// their predictable instructions resident, small-working-set benchmarks have
// nothing to gain.
type FiniteTable struct {
	Thresholds []float64
	Table      predictor.TableConfig
	Rows       []FiniteTableRow
}

// FiniteTableRow is one benchmark: the FSM baseline counts, and per
// threshold the percentage change of correct/incorrect predictions.
type FiniteTableRow struct {
	Bench        string
	FSMCorrect   int64
	FSMIncorrect int64
	// DeltaCorrect[i] is 100*(prof_correct-fsm_correct)/fsm_correct at
	// Thresholds[i]; likewise DeltaIncorrect.
	DeltaCorrect   []float64
	DeltaIncorrect []float64
	// Evictions under each scheme (FSM first), a table-pressure measure.
	FSMEvictions  int64
	ProfEvictions []int64
}

// RunFiniteTable regenerates figures 5.3/5.4 with the paper's 512-entry
// 2-way stride table, reading the engines of the memoized paper pass.
func RunFiniteTable(c *Context) (*FiniteTable, error) {
	out := &FiniteTable{Thresholds: c.Thresholds, Table: predictor.DefaultTableConfig}
	benches := workload.Names()
	out.Rows = make([]FiniteTableRow, len(benches))
	err := c.forEachBench(benches, func(i int, bench string) error {
		p, err := c.paperPass(bench)
		if err != nil {
			return err
		}
		fsm := p.SC.Prediction
		row := FiniteTableRow{Bench: bench, FSMCorrect: fsm.UsedCorrect, FSMIncorrect: fsm.UsedIncorrect,
			FSMEvictions: p.SC.Evictions}
		for _, th := range c.Thresholds {
			prof := p.at(th)
			row.DeltaCorrect = append(row.DeltaCorrect, deltaPct(prof.Prediction.UsedCorrect, row.FSMCorrect))
			row.DeltaIncorrect = append(row.DeltaIncorrect, deltaPct(prof.Prediction.UsedIncorrect, row.FSMIncorrect))
			row.ProfEvictions = append(row.ProfEvictions, prof.Evictions)
		}
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func deltaPct(new, base int64) float64 {
	if base == 0 {
		if new == 0 {
			return 0
		}
		return 100
	}
	return 100 * float64(new-base) / float64(base)
}

// ID implements Result.
func (*FiniteTable) ID() string { return "fig5.3+5.4" }

// Title implements Result.
func (f *FiniteTable) Title() string {
	return fmt.Sprintf("Figures 5.3/5.4 — Change in correct/incorrect predictions vs saturating counters (%d-entry %d-way stride table)",
		f.Table.Entries, f.Table.Assoc)
}

// Render implements Result.
func (f *FiniteTable) Render() string {
	var b strings.Builder
	render := func(title string, pick func(FiniteTableRow) []float64) {
		headers := []string{"benchmark"}
		for _, th := range f.Thresholds {
			headers = append(headers, fmt.Sprintf("th=%.0f%%", th))
		}
		tb := stats.NewTable(title, headers...)
		for _, r := range f.Rows {
			cells := []any{r.Bench}
			for _, v := range pick(r) {
				cells = append(cells, fmt.Sprintf("%+.1f%%", v))
			}
			tb.AddRow(cells...)
		}
		b.WriteString(tb.Render())
		b.WriteByte('\n')
	}
	b.WriteString(f.Title() + "\n")
	render("Figure 5.3 — Increase in correct predictions",
		func(r FiniteTableRow) []float64 { return r.DeltaCorrect })
	render("Figure 5.4 — Increase in incorrect predictions (negative = fewer mispredictions)",
		func(r FiniteTableRow) []float64 { return r.DeltaIncorrect })
	return b.String()
}
