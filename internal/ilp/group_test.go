package ilp

import (
	"testing"

	"repro/internal/annotate"
	"repro/internal/branch"
	"repro/internal/classify"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// groupMember is one machine of a test lane: no engine (the baseline), an
// FSM engine, or a profile engine under one threshold's directives, with
// its own table size.
type groupMember struct {
	kind  string // "base", "fsm" or "profile"
	th    int    // index into the threshold directive columns
	table predictor.TableConfig
}

func (g groupMember) build(t *testing.T, cfg Config) *Machine {
	t.Helper()
	if g.kind == "base" {
		return mustMachine(t, cfg, nil)
	}
	table, err := predictor.NewTable(predictor.Stride, g.table)
	if err != nil {
		t.Fatal(err)
	}
	if g.kind == "profile" {
		return mustMachine(t, cfg, vpsim.NewProfileEngine(table))
	}
	pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
	if err != nil {
		t.Fatal(err)
	}
	return mustMachine(t, cfg, vpsim.NewFSMEngine(table, pol))
}

// TestGroupMatchesSeparateMachines is the differential check of the group
// kernel. On every primary benchmark's evaluation trace it builds lanes of
// k = 1..7 machines mixing the baseline, FSM engines and profile engines
// under different threshold directive columns and table sizes (the k = 5
// lane on a machine with a non-default latency and misprediction penalty),
// feeds each lane as one group in 16384-, 2048- and 7-record blocks, and
// requires every machine's Result to equal the same machine replayed
// alone. A MultiEval pass then mixes the seven grouped machines with an
// in-order machine and a branch-predicted one, which must stay ungrouped
// and still match.
func TestGroupMatchesSeparateMachines(t *testing.T) {
	thresholds := []float64{90, 80, 70, 60, 50}
	tables := []predictor.TableConfig{{Entries: 512, Assoc: 2}, {Entries: 256, Assoc: 1}, {Entries: 1024, Assoc: 4}}
	kinds := []string{"profile", "base", "fsm"}
	members := make([]groupMember, 7)
	for j := range members {
		members[j] = groupMember{kinds[j%3], j % len(thresholds), tables[j%len(tables)]}
	}
	slow := Config{WindowSize: 40, MispredictPenalty: 3, Latency: 2}
	cfgOf := func(k int) Config {
		if k == 5 {
			return slow
		}
		return DefaultConfig
	}

	for _, bench := range workload.Names() {
		prog, err := workload.Build(bench, workload.EvaluationInput())
		if err != nil {
			t.Fatal(err)
		}
		col := profiler.NewCollector()
		if _, err := workload.BuildAndRun(bench, workload.TrainingInputs(1)[0], col); err != nil {
			t.Fatal(err)
		}
		image := col.Image(bench, "train")
		dirs := make([][]isa.Directive, len(thresholds))
		for i, th := range thresholds {
			opts := annotate.DefaultOptions
			opts.AccuracyThreshold = th
			p, _, err := annotate.Apply(prog, image, opts)
			if err != nil {
				t.Fatal(err)
			}
			dirs[i] = trace.DirsOf(p.Text)
		}
		rec := trace.NewRecorder()
		var recs []trace.Record
		if _, err := workload.Run(prog, trace.ConsumerFunc(func(r *trace.Record) {
			recs = append(recs, *r)
			rec.Consume(r)
		})); err != nil {
			t.Fatal(err)
		}
		rec.Seal()
		all := columnsOf(recs)
		// dirsOf is member j's directive column over the whole trace.
		dirsOf := func(g groupMember) []isa.Directive {
			if g.kind != "profile" {
				return all.Dir
			}
			col := make([]isa.Directive, all.N)
			for i, a := range all.Addr {
				if a >= 0 && a < int64(len(dirs[g.th])) {
					col[i] = dirs[g.th][a]
				}
			}
			return col
		}
		alone := func(g groupMember, cfg Config) Result {
			m := g.build(t, cfg)
			if g.kind == "profile" {
				rec.ReplayDirs(dirs[g.th], m)
			} else {
				rec.Replay(m)
			}
			return m.Result()
		}
		want := map[Config][]Result{}
		for _, cfg := range []Config{DefaultConfig, slow} {
			for _, g := range members {
				want[cfg] = append(want[cfg], alone(g, cfg))
			}
		}
		if want[DefaultConfig][0].Prediction.Candidates == 0 || want[DefaultConfig][2].Prediction.Candidates == 0 {
			t.Fatalf("%s: nothing predicted: %+v", bench, want[DefaultConfig])
		}

		for k := 1; k <= len(members); k++ {
			cfg := cfgOf(k)
			cols := make([][]isa.Directive, k)
			for j := range cols {
				cols[j] = dirsOf(members[j])
			}
			for _, block := range []int{1 << 14, 2048, 7} {
				ms := make([]*Machine, k)
				group := make([]trace.GroupConsumer, k)
				for j := range ms {
					ms[j] = members[j].build(t, cfg)
					group[j] = ms[j]
					if key := ms[j].GroupKey(); key == nil || key != ms[0].GroupKey() {
						t.Fatalf("%s k=%d: member %d key %v, member 0 key %v", bench, k, j, key, ms[0].GroupKey())
					}
				}
				for lo := 0; lo < all.N; lo += block {
					hi := min(lo+block, all.N)
					b := sliceBatch(all, lo, hi)
					for j, m := range ms {
						b.Dir = cols[j][lo:hi]
						m.PrepareBatch(b)
					}
					ms[0].ConsumeGroup(b, group)
				}
				for j, m := range ms {
					if got := m.Result(); got != want[cfg][j] {
						t.Errorf("%s k=%d block=%d: member %d (%s) grouped %+v, alone %+v",
							bench, k, block, j, members[j].kind, got, want[cfg][j])
					}
				}
			}
		}

		// Through MultiEval, next to machines that must run alone.
		loners := func() (inOrder, predicted *Machine) {
			inOrder = mustMachine(t, Config{WindowSize: 40, MispredictPenalty: 1, Latency: 1, IssueWidth: 2}, newFSMEngine(t))
			predicted = mustMachine(t, DefaultConfig, newFSMEngine(t))
			bp, err := branch.New(branch.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := predicted.UseBranchPredictor(bp, 3); err != nil {
				t.Fatal(err)
			}
			return inOrder, predicted
		}
		inOrder, predicted := loners()
		if inOrder.GroupKey() != nil || predicted.GroupKey() != nil {
			t.Fatalf("%s: in-order key %v, branch-predicted key %v, want nil", bench, inOrder.GroupKey(), predicted.GroupKey())
		}
		var cfgs []trace.EvalConfig
		ms := make([]*Machine, len(members))
		for j, g := range members {
			ms[j] = g.build(t, DefaultConfig)
			ec := trace.EvalConfig{Consumer: ms[j]}
			if g.kind == "profile" {
				ec.Dirs = dirs[g.th]
			}
			cfgs = append(cfgs, ec)
			if j == 2 {
				cfgs = append(cfgs, trace.EvalConfig{Consumer: inOrder}, trace.EvalConfig{Consumer: predicted})
			}
		}
		rec.MultiEval(cfgs...)
		for j, m := range ms {
			if got := m.Result(); got != want[DefaultConfig][j] {
				t.Errorf("%s MultiEval: member %d (%s) %+v, alone %+v", bench, j, members[j].kind, got, want[DefaultConfig][j])
			}
		}
		refInOrder, refPredicted := loners()
		rec.Replay(refInOrder)
		rec.Replay(refPredicted)
		if got, want := inOrder.Result(), refInOrder.Result(); got != want {
			t.Errorf("%s MultiEval: in-order machine %+v, alone %+v", bench, got, want)
		}
		if got, want := predicted.Result(), refPredicted.Result(); got != want {
			t.Errorf("%s MultiEval: branch-predicted machine %+v, alone %+v", bench, got, want)
		}
	}
}
