package experiments

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/classify"
	"repro/internal/ilp"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// TestPaperPassMatchesStandaloneMachines checks the memoized paper pass
// against fresh standalone machines and engines, each fed its own replay:
// every machine's cycles, instructions and engine statistics, and every
// table's evictions, must be equal. The sweep lacks 90, so the pass adds
// it; VP+Prof(90%) is also checked by re-executing the annotated program.
func TestPaperPassMatchesStandaloneMachines(t *testing.T) {
	c := diffContext(0)
	c.Thresholds = []float64{80, 50}
	for _, bench := range workload.Names() {
		p, err := c.paperPass(bench)
		if err != nil {
			t.Fatal(err)
		}
		if want := []float64{80, 50, 90}; !slices.Equal(p.Thresholds, want) {
			t.Fatalf("%s: pass thresholds %v, want %v", bench, p.Thresholds, want)
		}
		// replay feeds one consumer the stream a pass configuration sees:
		// plain for th < 0, else annotated at th.
		replay := func(th float64, consumer trace.Consumer) {
			var err error
			if th < 0 {
				err = c.RunEvalPlain(bench, consumer)
			} else {
				err = c.RunEvalAnnotated(bench, th, consumer)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		// none, fsm and profile build a machine's engine on a fresh paper
		// table (none: the no-prediction baseline).
		none := func() (*vpsim.Engine, *predictor.Table) { return nil, nil }
		profile := func() (*vpsim.Engine, *predictor.Table) {
			table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
			if err != nil {
				t.Fatal(err)
			}
			return vpsim.NewProfileEngine(table), table
		}
		fsm := func() (*vpsim.Engine, *predictor.Table) {
			_, table := profile()
			policy, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
			if err != nil {
				t.Fatal(err)
			}
			return vpsim.NewFSMEngine(table, policy), table
		}
		check := func(name string, got machineRun, th float64, engine func() (*vpsim.Engine, *predictor.Table)) {
			e, table := engine()
			m, err := ilp.New(ilp.DefaultConfig, e)
			if err != nil {
				t.Fatal(err)
			}
			replay(th, m)
			want := machineRun{Result: m.Result()}
			if table != nil {
				want.Evictions = table.Evictions
			}
			if got != want {
				t.Errorf("%s %s: pass %+v, standalone machine %+v", bench, name, got, want)
			}
			if e == nil {
				return
			}
			alone, aloneTable := engine()
			replay(th, alone)
			if alone.Stats() != got.Prediction || aloneTable.Evictions != got.Evictions {
				t.Errorf("%s %s: pass %+v (%d evictions), standalone engine %+v (%d evictions)",
					bench, name, got.Prediction, got.Evictions, alone.Stats(), aloneTable.Evictions)
			}
		}
		check("base", p.Base, -1, none)
		check("VP+SC", p.SC, -1, fsm)
		for k, th := range p.Thresholds {
			check(fmt.Sprintf("VP+Prof(%g%%)", th), p.Prof[k], th, profile)
		}

		annotated, _, err := c.Annotated(bench, 90)
		if err != nil {
			t.Fatal(err)
		}
		m, err := newProfileMachine(ilp.DefaultConfig, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := workload.Run(annotated, m); err != nil {
			t.Fatal(err)
		}
		if got := p.at(90).Result; got != m.Result() {
			t.Errorf("%s VP+Prof(90%%): pass %+v, re-executed annotated program %+v", bench, got, m.Result())
		}
	}
}

// TestPaperPassWithout90 regenerates the three extensions that read
// VP+Prof(90%) from a Context whose sweep lacks 90: the pass must add it,
// and their renders must equal the committed default-sweep results.
func TestPaperPassWithout90(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every benchmark at the default input count")
	}
	c := NewContext()
	c.Thresholds = []float64{80, 60}
	for _, id := range []string{"ext:branch", "ext:sched", "ext:hybrid"} {
		r, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Render()+"\n", committedResult(t, id); got != want {
			t.Errorf("%s with thresholds %v differs from docs/results:\n%s", id, c.Thresholds, firstDiff(want, got))
		}
	}
}
