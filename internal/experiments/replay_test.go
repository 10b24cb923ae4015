package experiments

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/classify"
	"repro/internal/ilp"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// The tests below prove the record-once/replay-many trace cache is
// bit-identical to live re-execution: for every benchmark workload they run
// the evaluation input (a) bare, (b) with consumers attached, and (c)
// recorded-then-replayed, and require identical final architectural state
// and identical consumer observations — including under annotated directive
// overrides at several thresholds. Live re-execution is one of the
// project's two test oracles; the committed docs/results renders are the
// other (see results_test.go).

// archState captures the machine's observable post-run state.
type archState struct {
	Retired int64
	Halted  bool
	IntRegs [isa.NumIntRegs]isa.Word
	FPRegs  [isa.NumFPRegs]uint64 // bit patterns, so NaNs compare exactly
	MemHash uint64
}

// finalState executes p with the consumers attached — to completion, or
// for exactly steps instructions when steps > 0 — and returns the final
// architectural state.
func finalState(t *testing.T, p *program.Program, steps int64, consumers ...trace.Consumer) archState {
	t.Helper()
	m, err := vm.New(p, vm.Config{Limits: vm.Limits{MaxSteps: steps}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range consumers {
		m.Attach(c)
	}
	if err := m.Run(); err != nil && !(steps > 0 && errors.Is(err, vm.ErrFuelExhausted)) {
		t.Fatal(err)
	}
	var st archState
	st.Retired = m.InstructionsRetired()
	st.Halted = m.Halted()
	for r := 0; r < isa.NumIntRegs; r++ {
		st.IntRegs[r] = m.IntReg(isa.Reg(r))
	}
	for r := 0; r < isa.NumFPRegs; r++ {
		st.FPRegs[r] = math.Float64bits(m.FPReg(isa.Reg(r)))
	}
	// FNV-1a over whole words: one multiply per word keeps the scan of the
	// ~8 MiB data image cheap.
	st.MemHash = 14695981039346656037
	for a := int64(0); ; a++ {
		w, err := m.Mem(a)
		if err != nil {
			break
		}
		st.MemHash = (st.MemHash ^ uint64(w)) * 1099511628211
	}
	return st
}

// capture records every consumed record by value.
type capture struct{ recs []trace.Record }

func (c *capture) Consume(r *trace.Record) { c.recs = append(c.recs, *r) }

func sameRecords(t *testing.T, live, replay []trace.Record) {
	t.Helper()
	if len(live) != len(replay) {
		t.Fatalf("live %d records, replay %d", len(live), len(replay))
	}
	for i := range live {
		if live[i] != replay[i] {
			t.Fatalf("record %d differs:\nlive   %+v\nreplay %+v", i, live[i], replay[i])
		}
	}
}

// recordHash is a scalar-only consumer that folds every field of every
// record into one FNV-1a hash: the table's whole-stream observer, and the
// consumer that keeps replay on its per-record walk.
type recordHash struct {
	n int64
	h uint64
}

func newRecordHash() *recordHash { return &recordHash{h: 14695981039346656037} }

func (c *recordHash) Consume(r *trace.Record) {
	for _, v := range [...]uint64{
		uint64(r.Addr), uint64(r.Op), uint64(trace.PackFlags(r)), uint64(r.Dest),
		uint64(r.Value), uint64(r.Phase), uint64(r.Seq),
		uint64(trace.PackRead(r.Reads[0]))<<8 | uint64(trace.PackRead(r.Reads[1])),
		uint64(r.MemAddr),
	} {
		c.h = (c.h ^ v) * 1099511628211
	}
	c.n++
}

// collectorStats flattens a profiler collector into a deterministic slice
// for deep comparison (InstStat includes the predictor emulation state, so
// equality here is exact, not just aggregate).
func collectorStats(fe func(func(*profiler.InstStat))) []profiler.InstStat {
	var out []profiler.InstStat
	fe(func(s *profiler.InstStat) { out = append(out, *s) })
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// oracleScheme is one consumer family of the re-execution table. mk builds
// a fresh consumer together with a function reporting its final state; th
// is the annotation threshold of the program the consumer observes (0 for
// the plain program).
type oracleScheme struct {
	name string
	th   float64
	mk   func(t *testing.T) (trace.Consumer, func() any)
}

// oracleSchemes covers every consumer kernel the drivers replay into: the
// profiler collector, the FSM engine, the profile engine at each threshold,
// the hybrid table, the ILP machine (bare and with profile-directed
// prediction) and a scalar-only consumer on both program variants.
func oracleSchemes(thresholds []float64) []oracleScheme {
	engine := func(mk func(t *testing.T) *vpsim.Engine) func(t *testing.T) (trace.Consumer, func() any) {
		return func(t *testing.T) (trace.Consumer, func() any) {
			e := mk(t)
			return e, func() any { return e.Stats() }
		}
	}
	fsm := func(t *testing.T) *vpsim.Engine {
		table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
		if err != nil {
			t.Fatal(err)
		}
		return vpsim.NewFSMEngine(table, pol)
	}
	profile := func(t *testing.T) *vpsim.Engine {
		table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
		if err != nil {
			t.Fatal(err)
		}
		return vpsim.NewProfileEngine(table)
	}
	hybrid := func(t *testing.T) *vpsim.Engine {
		h, err := predictor.NewHybrid(predictor.DefaultHybridConfig)
		if err != nil {
			t.Fatal(err)
		}
		return vpsim.NewHybridEngine(h)
	}
	machine := func(mkEngine func(t *testing.T) *vpsim.Engine) func(t *testing.T) (trace.Consumer, func() any) {
		return func(t *testing.T) (trace.Consumer, func() any) {
			var e *vpsim.Engine
			if mkEngine != nil {
				e = mkEngine(t)
			}
			m, err := ilp.New(ilp.DefaultConfig, e)
			if err != nil {
				t.Fatal(err)
			}
			return m, func() any {
				if e == nil {
					return m.Result()
				}
				return [2]any{m.Result(), e.Stats()}
			}
		}
	}
	hash := func(t *testing.T) (trace.Consumer, func() any) {
		c := newRecordHash()
		return c, func() any { return *c }
	}
	top := thresholds[0]
	schemes := []oracleScheme{
		{"collector", 0, func(t *testing.T) (trace.Consumer, func() any) {
			c := profiler.NewCollector()
			return c, func() any { return collectorStats(c.ForEach) }
		}},
		{"fsm", 0, engine(fsm)},
		{"ilp", 0, machine(nil)},
		{"scalar", 0, hash},
	}
	for _, th := range thresholds {
		schemes = append(schemes, oracleScheme{fmt.Sprintf("profile-%g", th), th, engine(profile)})
	}
	return append(schemes,
		oracleScheme{fmt.Sprintf("hybrid-%g", top), top, engine(hybrid)},
		oracleScheme{fmt.Sprintf("ilp-profile-%g", top), top, machine(profile)},
		oracleScheme{fmt.Sprintf("scalar-%g", top), top, hash},
	)
}

// oracleSteps bounds every run of the kernel-level oracle to six full
// 16384-record trace chunks plus a partial one: enough chunks for every
// decode-ahead and MultiEval lane count up to GOMAXPROCS 4, at a fraction
// of the cost of the full evaluation runs, which
// TestFusedTraceFilesMatchScalarRecord and the committed-output oracle
// cover end to end.
const oracleSteps = 6<<14 + 777

// TestReplayBitIdenticalToReexecution is the kernel-level oracle. For every
// benchmark it runs each program variant (plain, and annotated at every
// threshold) live with every scheme's consumer attached through a plain
// trace.ConsumerFunc — the VM's per-record step loop feeding each kernel's
// per-record Consume. It then records the plain program through the fused
// VM loop under each GOMAXPROCS and memory budget and requires every replay
// shape to reproduce the live results exactly: Replay for plain-program
// schemes and ReplayDirs for annotated ones (batch kernels sharing one
// batch walk, scalar-only consumers the per-record walk), and one
// MultiEval pass over every scheme. One comparison thereby covers fused
// against per-record recording, batch kernels against their per-record
// Consume, the encoder and decoder, spill readback, decode-ahead and
// MultiEval lanes. The thresholds are diffContext's two-point sweep, and
// every run stops after oracleSteps instructions.
func TestReplayBitIdenticalToReexecution(t *testing.T) {
	ctx := diffContext(0)
	schemes := oracleSchemes(ctx.Thresholds)
	for _, bench := range workload.AllNames() {
		t.Run(bench, func(t *testing.T) {
			prog, err := workload.Build(bench, workload.EvaluationInput())
			if err != nil {
				t.Fatal(err)
			}
			bare := finalState(t, prog, oracleSteps)

			// The live oracle: one run per program variant, every scheme
			// of that variant attached. Consumers are passive, so each
			// run must end in the bare run's architectural state.
			want := make([]any, len(schemes))
			dirs := map[float64][]isa.Directive{}
			for _, th := range append([]float64{0}, ctx.Thresholds...) {
				p := prog
				if th > 0 {
					if p, _, err = ctx.Annotated(bench, th); err != nil {
						t.Fatal(err)
					}
				}
				dirs[th] = trace.DirsOf(p.Text)
				var live []trace.Consumer
				var finals []func() any
				var idx []int
				for i, s := range schemes {
					if s.th == th {
						c, final := s.mk(t)
						live = append(live, trace.ConsumerFunc(c.Consume))
						finals = append(finals, final)
						idx = append(idx, i)
					}
				}
				if st := finalState(t, p, oracleSteps, live...); st != bare {
					t.Fatalf("threshold %g: attaching consumers changed the architectural outcome", th)
				}
				for k, i := range idx {
					want[i] = finals[k]()
				}
			}

			check := func(shape string, i int, got any) {
				t.Helper()
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s/%s: replay %+v, live %+v", schemes[i].name, shape, got, want[i])
				}
			}
			for _, procs := range []int{1, 2, 4} {
				for _, budget := range []int64{0, 1} {
					t.Run(fmt.Sprintf("procs%d-budget%d", procs, budget), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						rec := trace.NewRecorder()
						rec.SetMemBudget(budget)
						_, err := workload.RunConfig(prog, vm.Config{Limits: vm.Limits{MaxSteps: oracleSteps}}, rec)
						if !errors.Is(err, vm.ErrFuelExhausted) {
							t.Fatalf("recording stopped with %v, want the step limit", err)
						}
						rec.Seal()
						defer rec.Close()
						if rec.Len() != bare.Retired {
							t.Fatalf("recorded %d records, retired %d instructions", rec.Len(), bare.Retired)
						}
						if budget > 0 && rec.SpilledChunks() == 0 {
							t.Fatal("1-byte budget spilled nothing")
						}

						// One Replay/ReplayDirs pass per program variant and
						// consumer kind, so batch kernels take the batch walk.
						type group struct {
							th    float64
							batch bool
						}
						var order []group
						members := map[group][]int{}
						consumers := make([]trace.Consumer, len(schemes))
						finals := make([]func() any, len(schemes))
						for i, s := range schemes {
							consumers[i], finals[i] = s.mk(t)
							_, batch := consumers[i].(trace.BatchConsumer)
							g := group{s.th, batch}
							if members[g] == nil {
								order = append(order, g)
							}
							members[g] = append(members[g], i)
						}
						for _, g := range order {
							var cs []trace.Consumer
							for _, i := range members[g] {
								cs = append(cs, consumers[i])
							}
							shape := "Replay"
							if g.th == 0 {
								rec.Replay(cs...)
							} else {
								shape = "ReplayDirs"
								rec.ReplayDirs(dirs[g.th], cs...)
							}
							for _, i := range members[g] {
								check(shape, i, finals[i]())
							}
						}

						cfgs := make([]trace.EvalConfig, len(schemes))
						for i, s := range schemes {
							cfgs[i].Consumer, finals[i] = s.mk(t)
							if s.th > 0 {
								cfgs[i].Dirs = dirs[s.th]
							}
						}
						rec.MultiEval(cfgs...)
						for i, final := range finals {
							check("MultiEval", i, final())
						}
					})
				}
			}
		})
	}
}

// TestReplayDirsBitIdenticalToAnnotatedReexecution checks the directive-
// override replay against genuinely re-executing the annotated program: for
// each benchmark and a spread of thresholds, the replayed stream must equal
// the annotated program's live trace record-for-record.
func TestReplayDirsBitIdenticalToAnnotatedReexecution(t *testing.T) {
	ctx := NewContext()
	for _, bench := range workload.Names() {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			rec, err := ctx.EvalTrace(bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range []float64{90, 50} {
				ap, _, err := ctx.Annotated(bench, th)
				if err != nil {
					t.Fatal(err)
				}
				var liveCap capture
				liveState := finalState(t, ap, 0, &liveCap)
				var replayCap capture
				rec.ReplayDirs(trace.DirsOf(ap.Text), &replayCap)
				sameRecords(t, liveCap.recs, replayCap.recs)
				if liveState.Retired != rec.Len() {
					t.Fatalf("annotated run retired %d instructions, recorded trace has %d",
						liveState.Retired, rec.Len())
				}
			}
		})
	}
}

// TestContextEvalPathsAgree pins the Context-level invariant the drivers
// rely on: RunEvalPlain (replay) observes the same stream a direct
// re-execution produces, and EvalCollector equals a live-profiled run.
func TestContextEvalPathsAgree(t *testing.T) {
	ctx := NewContext()
	bench := "compress"

	var replayed capture
	if err := ctx.RunEvalPlain(bench, &replayed); err != nil {
		t.Fatal(err)
	}
	var live capture
	if _, err := workload.BuildAndRun(bench, workload.EvaluationInput(), &live); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, live.recs, replayed.recs)

	liveProf := profiler.NewCollector()
	if _, err := workload.BuildAndRun(bench, workload.EvaluationInput(), liveProf); err != nil {
		t.Fatal(err)
	}
	col, err := ctx.EvalCollector(bench)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveProf.Image(bench, "x"), col.Image(bench, "x")) {
		t.Fatal("EvalCollector profile differs from a live-profiled run")
	}
}
