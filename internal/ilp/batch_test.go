package ilp

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/classify"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// TestBatchScalarLiveAgree is the differential check of the one scheduling
// routine's two entry points: on every primary benchmark's evaluation
// trace, ConsumeBatch (batch replay), Consume (scalar replay) and live
// re-execution must produce equal Results — for the paper's machine, the
// in-order front ends of the scheduling extension, and a bimodal branch
// predictor, each with a value-prediction engine, plus the paper's
// no-prediction baseline.
func TestBatchScalarLiveAgree(t *testing.T) {
	machines := []struct {
		name            string
		cfg             Config
		engine, bimodal bool
	}{
		{"base", DefaultConfig, false, false},
		{"default", DefaultConfig, true, false},
		{"width2", Config{WindowSize: 40, MispredictPenalty: 1, Latency: 1, IssueWidth: 2}, true, false},
		{"width4", Config{WindowSize: 40, MispredictPenalty: 1, Latency: 1, IssueWidth: 4}, true, false},
		{"bimodal3", DefaultConfig, true, true},
	}
	for _, bench := range workload.Names() {
		prog, err := workload.Build(bench, workload.EvaluationInput())
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		if _, err := workload.Run(prog, rec); err != nil {
			t.Fatal(err)
		}
		rec.Seal()
		for _, mc := range machines {
			newMachine := func() *Machine {
				var e *vpsim.Engine
				if mc.engine {
					store, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
					if err != nil {
						t.Fatal(err)
					}
					pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
					if err != nil {
						t.Fatal(err)
					}
					e = vpsim.NewFSMEngine(store, pol)
				}
				m := mustMachine(t, mc.cfg, e)
				if mc.bimodal {
					bp, err := branch.New(branch.Config{})
					if err != nil {
						t.Fatal(err)
					}
					if err := m.UseBranchPredictor(bp, 3); err != nil {
						t.Fatal(err)
					}
				}
				return m
			}
			batch, scalar, live := newMachine(), newMachine(), newMachine()
			rec.Replay(batch)
			rec.Replay(trace.ConsumerFunc(scalar.Consume))
			if _, err := workload.Run(prog, live); err != nil {
				t.Fatal(err)
			}
			want := live.Result()
			if want.Instructions != rec.Len() || want.Cycles == 0 {
				t.Fatalf("%s/%s: live run scheduled %d records in %d cycles, trace has %d",
					bench, mc.name, want.Instructions, want.Cycles, rec.Len())
			}
			if got := batch.Result(); got != want {
				t.Errorf("%s/%s: ConsumeBatch %+v, live %+v", bench, mc.name, got, want)
			}
			if got := scalar.Result(); got != want {
				t.Errorf("%s/%s: Consume %+v, live %+v", bench, mc.name, got, want)
			}
		}
	}
}

// TestMemReadyPages pins the paged memory-ready table: words on either side
// of a page boundary are independent, the top word of vpserve's MaxMem
// sandbox (1<<24 words) works, never-stored words (in allocated and
// unallocated pages alike) read 0, and addresses outside the dense range
// fall back to the map.
func TestMemReadyPages(t *testing.T) {
	var mr memReady
	top := int64(1<<24 - 1)
	far := int64(memDensePages) << memPageBits
	writes := map[int64]int64{
		memPageWords - 1: 11,
		memPageWords:     12,
		top:              13,
		far:              14,
		-1:               15,
	}
	for a, v := range writes {
		mr.set(a, v)
	}
	for a, v := range writes {
		if got := mr.get(a); got != v {
			t.Errorf("get(%d) = %d, want %d", a, got, v)
		}
	}
	for _, a := range []int64{0, memPageWords - 2, memPageWords + 1, 2 * memPageWords, top - 1, top + 1, far + 1, -2} {
		if got := mr.get(a); got != 0 {
			t.Errorf("never-stored word %d reads %d, want 0", a, got)
		}
	}
	if len(mr.far) != 2 {
		t.Errorf("far map holds %d words, want 2 (the out-of-range stores)", len(mr.far))
	}
	allocated := 0
	for _, pg := range mr.pages {
		if pg != nil {
			allocated++
		}
	}
	if allocated != 3 {
		t.Errorf("%d pages allocated, want 3 (two around the boundary, one at the top)", allocated)
	}
}

// TestStoreLoadAcrossPagesAndSandboxTop: through the scheduler, a load
// waits for the last store to its own word only — the word on the other
// side of a page boundary, or in a page never stored to, is free.
func TestStoreLoadAcrossPagesAndSandboxTop(t *testing.T) {
	for _, a := range []int64{memPageWords - 1, memPageWords, 1<<24 - 1} {
		// A long chain through r1 makes the store complete late.
		m := mustMachine(t, DefaultConfig, nil)
		for i := 0; i < 30; i++ {
			r := alu(0, 1, int64(i), 1)
			m.Consume(&r)
		}
		st := trace.Record{Addr: 1, Op: isa.OpST, HasMem: true, MemAddr: a,
			Reads: [2]trace.RegRead{{Valid: true, Reg: 1}}}
		m.Consume(&st)
		storeDone := m.lastRetire
		for _, probe := range []int64{a + 1, a - 1, a + 5*memPageWords} {
			ld := trace.Record{Addr: 2, Op: isa.OpLD, HasDest: true, Dest: 2, HasMem: true, MemAddr: probe}
			m.Consume(&ld)
			if ready := m.ready[2]; ready >= storeDone {
				t.Errorf("load of never-stored word %d (store at %d) ready at %d, not before the store (%d)",
					probe, a, ready, storeDone)
			}
		}
		ld := trace.Record{Addr: 3, Op: isa.OpLD, HasDest: true, Dest: 3, HasMem: true, MemAddr: a}
		m.Consume(&ld)
		if ready := m.ready[3]; ready <= storeDone {
			t.Errorf("load of stored word %d ready at %d, want after the store completes (%d)", a, ready, storeDone)
		}
	}
}

// TestBatchBoundariesDoNotLeak feeds each machine configuration one trace
// four ways — whole 16384-record chunks (the recorder's chunk size),
// 2048-record blocks (the inline walk's sub-batches), 7-record blocks and
// per-record Consume — and requires equal Results. The two-phase kernel
// runs the engine over a whole batch before scheduling it, so any state
// that leaked across a batch boundary, or any engine outcome that depended
// on schedule timing, would split the four.
func TestBatchBoundariesDoNotLeak(t *testing.T) {
	for _, bench := range []string{"compress", "m88ksim"} {
		prog, err := workload.Build(bench, workload.EvaluationInput())
		if err != nil {
			t.Fatal(err)
		}
		var recs []trace.Record
		if _, err := workload.Run(prog, trace.ConsumerFunc(func(r *trace.Record) {
			recs = append(recs, *r)
		})); err != nil {
			t.Fatal(err)
		}
		// The profile configuration sees a directive-patched stream: a
		// third of the addresses each get the stride and the last-value
		// directive, the rest none.
		patched := append([]trace.Record(nil), recs...)
		for i := range patched {
			patched[i].Dir = isa.Directive(patched[i].Addr % 3)
		}

		configs := []struct {
			name  string
			recs  []trace.Record
			build func() *Machine
		}{
			{"fsm", recs, func() *Machine { return mustMachine(t, DefaultConfig, newFSMEngine(t)) }},
			{"profile", patched, func() *Machine {
				table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
				if err != nil {
					t.Fatal(err)
				}
				return mustMachine(t, DefaultConfig, vpsim.NewProfileEngine(table))
			}},
			{"width2", recs, func() *Machine {
				return mustMachine(t, Config{WindowSize: 40, MispredictPenalty: 1, Latency: 1, IssueWidth: 2}, newFSMEngine(t))
			}},
			{"bimodal", recs, func() *Machine {
				m := mustMachine(t, DefaultConfig, newFSMEngine(t))
				bp, err := branch.New(branch.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if err := m.UseBranchPredictor(bp, 3); err != nil {
					t.Fatal(err)
				}
				return m
			}},
		}
		for _, c := range configs {
			all := columnsOf(c.recs)
			var results []Result
			for _, block := range []int{1 << 14, 2048, 7} {
				m := c.build()
				for lo := 0; lo < all.N; lo += block {
					m.ConsumeBatch(sliceBatch(all, lo, min(lo+block, all.N)))
				}
				results = append(results, m.Result())
			}
			m := c.build()
			for i := range c.recs {
				m.Consume(&c.recs[i])
			}
			results = append(results, m.Result())

			if results[0].Instructions != int64(len(c.recs)) || results[0].Prediction.Candidates == 0 {
				t.Fatalf("%s/%s: %+v over %d records: nothing predicted", bench, c.name, results[0], len(c.recs))
			}
			for k, way := range []string{"2048-record blocks", "7-record blocks", "per-record Consume"} {
				if results[k+1] != results[0] {
					t.Errorf("%s/%s: %s %+v, whole chunks %+v", bench, c.name, way, results[k+1], results[0])
				}
			}
		}
	}
}

func newFSMEngine(t *testing.T) *vpsim.Engine {
	t.Helper()
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

// columnsOf packs records into one batch in the trace column layout.
func columnsOf(recs []trace.Record) *trace.Batch {
	n := len(recs)
	b := &trace.Batch{N: n,
		Op: make([]byte, n), Flags: make([]byte, n), Dest: make([]byte, n), Reads: make([]byte, 2*n),
		Dir: make([]isa.Directive, n), Addr: make([]int64, n), Value: make([]int64, n), MemAddr: make([]int64, n)}
	for i := range recs {
		r := &recs[i]
		b.Op[i], b.Flags[i], b.Dest[i] = byte(r.Op), trace.PackFlags(r), byte(r.Dest)
		b.Reads[2*i], b.Reads[2*i+1] = trace.PackRead(r.Reads[0]), trace.PackRead(r.Reads[1])
		b.Dir[i], b.Addr[i], b.Value[i], b.MemAddr[i] = r.Dir, r.Addr, r.Value, r.MemAddr
	}
	return b
}

// sliceBatch views records [lo, hi) of b as a batch of their own.
func sliceBatch(b *trace.Batch, lo, hi int) *trace.Batch {
	return &trace.Batch{N: hi - lo,
		Op: b.Op[lo:hi], Flags: b.Flags[lo:hi], Dest: b.Dest[lo:hi], Reads: b.Reads[2*lo : 2*hi],
		Dir: b.Dir[lo:hi], Addr: b.Addr[lo:hi], Value: b.Value[lo:hi], MemAddr: b.MemAddr[lo:hi]}
}
