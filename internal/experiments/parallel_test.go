package experiments

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/ilp"
	"repro/internal/predictor"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// diffContext returns a Context sized for the sweep tests: two training
// inputs and a two-point threshold sweep, so the sweep paths stay exercised
// cheaply.
func diffContext(workers int) *Context {
	c := NewContext()
	c.NumTrainInputs = 2
	c.Thresholds = []float64{90, 50}
	c.Workers = workers
	return c
}

// TestSweepDriversSinglePass asserts the tentpole invariant directly: a
// threshold-sweep driver replays each benchmark's recorded trace EXACTLY
// once, no matter how many configurations it evaluates.
func TestSweepDriversSinglePass(t *testing.T) {
	c := diffContext(1)
	if _, err := RunFiniteTable(c); err != nil {
		t.Fatal(err)
	}
	for _, bench := range workload.Names() {
		rec, err := c.EvalTrace(bench)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Passes(); got != 1 {
			t.Errorf("%s: %d trace passes for %d configurations, want exactly 1",
				bench, got, 1+len(c.Thresholds))
		}
	}
}

// TestSweepMatchesSeparateReplays is the full-pipeline equivalence check:
// for every predictor scheme, an engine evaluated inside one RunEvalSweep
// pass must produce statistics identical to a twin engine evaluated through
// the sequential RunEvalPlain/RunEvalAnnotated path.
func TestSweepMatchesSeparateReplays(t *testing.T) {
	const bench = "compress"
	c := diffContext(1)

	mkFSM := func(kind predictor.Kind) func(t *testing.T) *vpsim.Engine {
		return func(t *testing.T) *vpsim.Engine {
			table, err := predictor.NewTable(kind, predictor.DefaultTableConfig)
			if err != nil {
				t.Fatal(err)
			}
			pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
			if err != nil {
				t.Fatal(err)
			}
			return vpsim.NewFSMEngine(table, pol)
		}
	}
	mkProfile := func(kind predictor.Kind) func(t *testing.T) *vpsim.Engine {
		return func(t *testing.T) *vpsim.Engine {
			table, err := predictor.NewTable(kind, predictor.DefaultTableConfig)
			if err != nil {
				t.Fatal(err)
			}
			return vpsim.NewProfileEngine(table)
		}
	}
	mkHybrid := func(t *testing.T) *vpsim.Engine {
		h, err := predictor.NewHybrid(predictor.DefaultHybridConfig)
		if err != nil {
			t.Fatal(err)
		}
		return vpsim.NewHybridEngine(h)
	}
	mkInfinite := func(kind predictor.Kind) func(t *testing.T) *vpsim.Engine {
		return func(t *testing.T) *vpsim.Engine {
			return vpsim.NewProfileEngine(predictor.NewInfinite(kind))
		}
	}

	schemes := []struct {
		name  string
		plain bool
		th    float64
		mk    func(t *testing.T) *vpsim.Engine
	}{
		{"stride-fsm", true, 0, mkFSM(predictor.Stride)},
		{"lastvalue-fsm", true, 0, mkFSM(predictor.LastValue)},
		{"stride-profile-t90", false, 90, mkProfile(predictor.Stride)},
		{"lastvalue-profile-t50", false, 50, mkProfile(predictor.LastValue)},
		{"stride-infinite-t90", false, 90, mkInfinite(predictor.Stride)},
		{"hybrid-profile-t90", false, 90, mkHybrid},
	}

	// One engine per scheme rides the single sweep pass; its twin replays
	// separately. An ILP machine pair checks the timing path too.
	sweepEngines := make([]*vpsim.Engine, len(schemes))
	cfgs := make([]SweepConfig, 0, len(schemes)+1)
	for i, s := range schemes {
		sweepEngines[i] = s.mk(t)
		if s.plain {
			cfgs = append(cfgs, Plain(sweepEngines[i]))
		} else {
			cfgs = append(cfgs, Sweep(s.th, sweepEngines[i]))
		}
	}
	mSweep, err := ilp.New(ilp.DefaultConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, Plain(mSweep))

	saved, err := c.RunEvalSweep(bench, cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(cfgs) - 1); saved != want {
		t.Errorf("passes saved = %d, want %d", saved, want)
	}

	for i, s := range schemes {
		twin := s.mk(t)
		if s.plain {
			err = c.RunEvalPlain(bench, twin)
		} else {
			err = c.RunEvalAnnotated(bench, s.th, twin)
		}
		if err != nil {
			t.Fatal(err)
		}
		if sweepEngines[i].Stats() != twin.Stats() {
			t.Errorf("%s: sweep stats %+v != separate-replay stats %+v",
				s.name, sweepEngines[i].Stats(), twin.Stats())
		}
	}
	mTwin, err := ilp.New(ilp.DefaultConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunEvalPlain(bench, mTwin); err != nil {
		t.Fatal(err)
	}
	if mSweep.Result() != mTwin.Result() {
		t.Errorf("ILP: sweep result %+v != separate-replay result %+v", mSweep.Result(), mTwin.Result())
	}
}
