package experiments

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Table52 reproduces Table 5.2: the increase in ILP gained by value
// prediction under each classification mechanism, relative to running the
// same trace with no value prediction, on the paper's abstract machine
// (40-entry window, unlimited execution units, perfect branch prediction,
// 1-cycle misprediction penalty, 512-entry 2-way stride table).
type Table52 struct {
	Thresholds []float64
	Rows       []Table52Row
}

// Table52Row is one benchmark's ILP results.
type Table52Row struct {
	Bench   string
	BaseILP float64
	SC      float64   // % ILP increase, VP + saturating counters
	Prof    []float64 // % ILP increase, VP + profile at each threshold
	SCILP   float64
	ProfILP []float64
}

// RunTable52 regenerates Table 5.2 from the memoized paper pass.
func RunTable52(c *Context) (*Table52, error) {
	out := &Table52{Thresholds: c.Thresholds}
	benches := workload.Names()
	out.Rows = make([]Table52Row, len(benches))
	err := c.forEachBench(benches, func(i int, bench string) error {
		p, err := c.paperPass(bench)
		if err != nil {
			return err
		}
		row := Table52Row{Bench: bench, BaseILP: p.Base.ILP(), SCILP: p.SC.ILP(), SC: p.SC.SpeedupOver(p.Base.Result)}
		for _, th := range c.Thresholds {
			prof := p.at(th)
			row.ProfILP = append(row.ProfILP, prof.ILP())
			row.Prof = append(row.Prof, prof.SpeedupOver(p.Base.Result))
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
func (*Table52) ID() string { return "table5.2" }

// Title implements Result.
func (*Table52) Title() string {
	return "Table 5.2 — ILP increase from value prediction under different classification mechanisms"
}

// Render implements Result.
func (t *Table52) Render() string {
	headers := []string{"benchmark", "base ILP", "VP+SC"}
	for _, th := range t.Thresholds {
		headers = append(headers, fmt.Sprintf("VP+Prof %.0f%%", th))
	}
	tb := stats.NewTable(t.Title(), headers...)
	for _, r := range t.Rows {
		cells := []any{r.Bench, stats.FormatRatio(r.BaseILP), fmt.Sprintf("%+.0f%%", r.SC)}
		for _, v := range r.Prof {
			cells = append(cells, fmt.Sprintf("%+.0f%%", v))
		}
		tb.AddRow(cells...)
	}
	var b strings.Builder
	b.WriteString(tb.Render())
	return b.String()
}
