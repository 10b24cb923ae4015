package vpsim

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

func fsmEngine(t *testing.T, store predictor.Store) *Engine {
	t.Helper()
	policy, err := classify.NewFSMPolicy(classify.SatCounter{Bits: 2, TrustAt: 2, Initial: 2})
	if err != nil {
		t.Fatal(err)
	}
	return NewFSMEngine(store, policy)
}

func TestFSMEngineStrideStream(t *testing.T) {
	e := fsmEngine(t, predictor.NewInfinite(predictor.Stride))
	// Arithmetic progression: miss, then a warm-up mispredict (stride
	// still 0 predicts 5≠8) that drops the counter below trust, one
	// correct-but-withheld prediction that restores it, then exact and
	// trusted forever.
	outs := []Outcome{}
	for _, v := range []int64{5, 8, 11, 14, 17, 20} {
		outs = append(outs, e.Observe(100, isa.DirNone, v))
	}
	want := []Outcome{
		OutcomeMiss, OutcomeUsedIncorrect, OutcomeUnusedCorrect,
		OutcomeUsedCorrect, OutcomeUsedCorrect, OutcomeUsedCorrect,
	}
	for i := range want {
		if outs[i] != want[i] {
			t.Errorf("step %d: outcome %v, want %v", i, outs[i], want[i])
		}
	}
	st := e.Stats()
	if st.ValueInstructions != 6 || st.Candidates != 6 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.UsedCorrect != 3 || st.UsedIncorrect != 1 || st.UnusedCorrect != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.PredictionAccuracy() != 75 {
		t.Errorf("accuracy = %g", st.PredictionAccuracy())
	}
}

func TestFSMEngineCountersSilenceNoise(t *testing.T) {
	e := fsmEngine(t, predictor.NewInfinite(predictor.Stride))
	// Random-looking values: after the first misprediction the counter
	// drops below trust and every later wrong prediction is filtered.
	vals := []int64{3, 17, 99, 4, 250, 77, 1234, 9}
	for _, v := range vals {
		e.Observe(5, isa.DirNone, v)
	}
	st := e.Stats()
	if st.UsedIncorrect != 1 {
		t.Errorf("used-incorrect = %d, want only the warm-up misprediction", st.UsedIncorrect)
	}
	if st.UnusedIncorrect != 6 {
		t.Errorf("unused-incorrect = %d, want 6 filtered", st.UnusedIncorrect)
	}
	if st.MispredClassAccuracy() != 100*6.0/7.0 {
		t.Errorf("mispred class accuracy = %g", st.MispredClassAccuracy())
	}
}

func TestProfileEngineGating(t *testing.T) {
	e := NewProfileEngine(predictor.NewInfinite(predictor.Stride))
	// Untagged instructions never touch the table.
	for _, v := range []int64{1, 2, 3} {
		if got := e.Observe(7, isa.DirNone, v); got != OutcomeNotCandidate {
			t.Errorf("untagged outcome = %v", got)
		}
	}
	// Tagged instructions are allocated and always used.
	if got := e.Observe(8, isa.DirStride, 10); got != OutcomeMiss {
		t.Errorf("first tagged outcome = %v", got)
	}
	e.Observe(8, isa.DirStride, 13)
	if got := e.Observe(8, isa.DirStride, 16); got != OutcomeUsedCorrect {
		t.Errorf("stride outcome = %v", got)
	}
	st := e.Stats()
	if st.ValueInstructions != 6 || st.Candidates != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.UnusedCorrect != 0 && st.UnusedIncorrect != 0 {
		t.Error("profile engine withheld a prediction")
	}
}

func TestHybridEngineRouting(t *testing.T) {
	h := predictor.NewInfiniteHybrid()
	e := NewHybridEngine(h)
	e.Observe(1, isa.DirStride, 10)
	e.Observe(2, isa.DirLastValue, 20)
	e.Observe(3, isa.DirNone, 30)
	if h.StrideTable.Len() != 1 || h.LastTable.Len() != 1 {
		t.Errorf("tables hold %d/%d entries", h.StrideTable.Len(), h.LastTable.Len())
	}
	// The last-value table must ignore strides: 20,25,30 never predicts
	// correctly, while the same stream in the stride table would.
	e.Observe(2, isa.DirLastValue, 25)
	if got := e.Observe(2, isa.DirLastValue, 30); got != OutcomeUsedIncorrect {
		t.Errorf("last-value table predicted a stride: %v", got)
	}
}

func TestEngineWithFiniteTableEvicts(t *testing.T) {
	table, err := predictor.NewTable(predictor.Stride, predictor.TableConfig{Entries: 2, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := fsmEngine(t, table)
	// Two addresses mapping to the same direct-mapped set thrash.
	for i := 0; i < 10; i++ {
		e.Observe(0, isa.DirNone, 1)
		e.Observe(2, isa.DirNone, 1)
	}
	st := e.Stats()
	if st.Misses != 20 {
		t.Errorf("misses = %d, want 20 (pure thrash)", st.Misses)
	}
	if table.Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestEngineConsumeSkipsNonValueRecords(t *testing.T) {
	e := NewProfileEngine(predictor.NewInfinite(predictor.Stride))
	e.Consume(&trace.Record{Addr: 1, Op: isa.OpBEQ})
	e.Consume(&trace.Record{Addr: 2, Op: isa.OpADD, HasDest: true, Dir: isa.DirStride, Value: 4})
	st := e.Stats()
	if st.ValueInstructions != 1 {
		t.Errorf("value instructions = %d, want 1", st.ValueInstructions)
	}
}

func TestStatsAccessors(t *testing.T) {
	s := Stats{UsedCorrect: 6, UsedIncorrect: 2, UnusedCorrect: 2, UnusedIncorrect: 6}
	if s.Correct() != 8 || s.Incorrect() != 8 {
		t.Errorf("Correct/Incorrect = %d/%d", s.Correct(), s.Incorrect())
	}
	if s.MispredClassAccuracy() != 75 {
		t.Errorf("mispred class accuracy = %g", s.MispredClassAccuracy())
	}
	if s.CorrectClassAccuracy() != 75 {
		t.Errorf("correct class accuracy = %g", s.CorrectClassAccuracy())
	}
	if s.PredictionAccuracy() != 75 {
		t.Errorf("prediction accuracy = %g", s.PredictionAccuracy())
	}
	var zero Stats
	if zero.MispredClassAccuracy() != 0 || zero.PredictionAccuracy() != 0 {
		t.Error("zero stats should not divide by zero")
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestPolicyName(t *testing.T) {
	if NewProfileEngine(predictor.NewInfinite(predictor.Stride)).PolicyName() != "profile-directives" {
		t.Error("profile engine policy name")
	}
	e := fsmEngine(t, predictor.NewInfinite(predictor.Stride))
	if e.PolicyName() != "saturating-counters" {
		t.Error("fsm engine policy name")
	}
}

// TestHandComputedEngineStreams pins the engine's per-record decisions on
// hand-computed streams: the FSM counter walking init → saturate →
// untrusted → retrusted on a last-value entry (over a finite and an
// infinite table, which must agree when nothing is evicted), a profile
// engine refusing untagged instructions, and a hybrid engine sending stride
// and last-value directives to different tables.
func TestHandComputedEngineStreams(t *testing.T) {
	type obs struct {
		addr    int64
		dir     isa.Directive
		value   int64
		want    Outcome
		counter uint8 // entry counter afterwards (FSM walk only)
	}
	// DefaultSatCounter: 2 bits, trusted at ≥2, allocated at 2.
	fsmWalk := []obs{
		{7, isa.DirNone, 5, OutcomeMiss, 2},            // allocate at Initial
		{7, isa.DirNone, 5, OutcomeUsedCorrect, 3},     // trusted, correct
		{7, isa.DirNone, 5, OutcomeUsedCorrect, 3},     // saturated at Max
		{7, isa.DirNone, 6, OutcomeUsedIncorrect, 2},   // still trusted
		{7, isa.DirNone, 7, OutcomeUsedIncorrect, 1},   // drops below trust
		{7, isa.DirNone, 8, OutcomeUnusedIncorrect, 0}, // filtered
		{7, isa.DirNone, 9, OutcomeUnusedIncorrect, 0}, // floor at 0
		{7, isa.DirNone, 9, OutcomeUnusedCorrect, 1},   // lost opportunity
		{7, isa.DirNone, 9, OutcomeUnusedCorrect, 2},   // back at trust
		{7, isa.DirNone, 9, OutcomeUsedCorrect, 3},     // retrusted
	}
	finite, err := predictor.NewTable(predictor.LastValue, predictor.DefaultTableConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, store := range []predictor.Store{finite, predictor.NewInfinite(predictor.LastValue)} {
		e := fsmEngine(t, store)
		for i, o := range fsmWalk {
			if got := e.Observe(o.addr, o.dir, o.value); got != o.want {
				t.Errorf("%T fsm step %d: %v, want %v", store, i, got, o.want)
			}
			if c := store.Lookup(o.addr).Counter; c != o.counter {
				t.Errorf("%T fsm step %d: counter %d, want %d", store, i, c, o.counter)
			}
		}
		want := Stats{ValueInstructions: 10, Candidates: 10, Misses: 1,
			UsedCorrect: 3, UsedIncorrect: 2, UnusedCorrect: 2, UnusedIncorrect: 2}
		if got := e.Stats(); got != want {
			t.Errorf("%T fsm stats %+v, want %+v", store, got, want)
		}
	}

	// Profile policy: an untagged instruction is not a candidate and never
	// reaches the table; a tagged one is, and its predictions are always
	// used.
	table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
	if err != nil {
		t.Fatal(err)
	}
	prof := NewProfileEngine(table)
	for i, o := range []obs{
		{3, isa.DirNone, 1, OutcomeNotCandidate, 0},
		{3, isa.DirNone, 2, OutcomeNotCandidate, 0},
		{4, isa.DirStride, 10, OutcomeMiss, 0},
		{4, isa.DirStride, 20, OutcomeUsedIncorrect, 0}, // stride 0 predicts 10
		{4, isa.DirStride, 30, OutcomeUsedCorrect, 0},   // 20 + 10
		{4, isa.DirStride, 35, OutcomeUsedIncorrect, 0}, // used despite the miss streak
	} {
		if got := prof.Observe(o.addr, o.dir, o.value); got != o.want {
			t.Errorf("profile step %d: %v, want %v", i, got, o.want)
		}
	}
	if table.Len() != 1 || table.Lookup(3) != nil {
		t.Errorf("profile engine table holds %d entries (untagged address present: %v)", table.Len(), table.Lookup(3) != nil)
	}
	if got, want := prof.Stats(), (Stats{ValueInstructions: 6, Candidates: 4, Misses: 1,
		UsedCorrect: 1, UsedIncorrect: 2}); got != want {
		t.Errorf("profile stats %+v, want %+v", got, want)
	}

	// Hybrid: the same arithmetic progression is exact in the stride table
	// and always wrong in the last-value table.
	h := predictor.NewInfiniteHybrid()
	hy := NewHybridEngine(h)
	for i, o := range []obs{
		{1, isa.DirStride, 10, OutcomeMiss, 0},
		{2, isa.DirLastValue, 10, OutcomeMiss, 0},
		{5, isa.DirNone, 10, OutcomeNotCandidate, 0},
		{1, isa.DirStride, 20, OutcomeUsedIncorrect, 0},
		{2, isa.DirLastValue, 20, OutcomeUsedIncorrect, 0},
		{1, isa.DirStride, 30, OutcomeUsedCorrect, 0},
		{2, isa.DirLastValue, 30, OutcomeUsedIncorrect, 0},
		{1, isa.DirStride, 40, OutcomeUsedCorrect, 0},
		{2, isa.DirLastValue, 40, OutcomeUsedIncorrect, 0},
	} {
		if got := hy.Observe(o.addr, o.dir, o.value); got != o.want {
			t.Errorf("hybrid step %d: %v, want %v", i, got, o.want)
		}
	}
	if h.StrideTable.Len() != 1 || h.LastTable.Len() != 1 ||
		h.StrideTable.Lookup(1) == nil || h.LastTable.Lookup(2) == nil {
		t.Errorf("hybrid tables hold %d/%d entries: stride table has 1: %v, last-value table has 2: %v",
			h.StrideTable.Len(), h.LastTable.Len(), h.StrideTable.Lookup(1) != nil, h.LastTable.Lookup(2) != nil)
	}
}

// TestObserveBatchColumn: the column entry point writes one outcome per
// record — OutcomeNotCandidate, uncounted, for records without a
// destination — equal to Observe on the value records alone.
func TestObserveBatchColumn(t *testing.T) {
	flags := []byte{trace.FlagHasDest, 0, trace.FlagHasDest, trace.FlagHasDest | trace.FlagHasMem, 0, trace.FlagHasDest}
	addrs := []int64{9, 9, 9, 9, 4, 9}
	vals := []int64{2, 77, 4, 6, 1, 8}
	dirs := make([]isa.Directive, len(flags))
	b := &trace.Batch{N: len(flags), Flags: flags, Addr: addrs, Dir: dirs, Value: vals}
	batch := fsmEngine(t, predictor.NewInfinite(predictor.Stride))
	out := make([]Outcome, b.N)
	batch.ObserveBatch(b, out)

	scalar := fsmEngine(t, predictor.NewInfinite(predictor.Stride))
	for i, f := range flags {
		want := OutcomeNotCandidate
		if f&trace.FlagHasDest != 0 {
			want = scalar.Observe(addrs[i], dirs[i], vals[i])
		}
		if out[i] != want {
			t.Errorf("record %d: %v, want %v", i, out[i], want)
		}
	}
	if batch.Stats() != scalar.Stats() || batch.Stats().ValueInstructions != 4 {
		t.Errorf("batch stats %+v, per-record stats %+v", batch.Stats(), scalar.Stats())
	}
}
