package trace

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
)

// randomRecord builds an arbitrary record within canonical ISA field ranges,
// stressing delta chains harder than the regular synthetic stream.
func randomRecord(rng *rand.Rand, seq int64) Record {
	r := Record{
		Addr:    rng.Int63n(1 << 20),
		Op:      isa.Opcode(rng.Intn(isa.NumOpcodes()-1) + 1),
		Dir:     isa.Directive(rng.Intn(3)),
		HasDest: rng.Intn(2) == 0,
		DestFP:  rng.Intn(4) == 0,
		Dest:    isa.Reg(rng.Intn(64)),
		Value:   rng.Int63() - rng.Int63(),
		Phase:   rng.Intn(5) - 1,
		Seq:     seq,
		Taken:   rng.Intn(3) == 0,
	}
	if rng.Intn(3) == 0 {
		r.HasMem = true
		r.MemAddr = rng.Int63n(1 << 30)
	}
	for k := range r.Reads {
		if rng.Intn(2) == 0 {
			r.Reads[k] = RegRead{Valid: true, FP: rng.Intn(4) == 0, Reg: isa.Reg(rng.Intn(64))}
		}
	}
	return r
}

// recordAll records recs into a fresh Recorder (left unsealed).
func recordAll(recs []Record) *Recorder {
	rc := NewRecorder()
	for i := range recs {
		rc.Consume(&recs[i])
	}
	return rc
}

// randomRecords builds n random records with positional Seq.
func randomRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
	}
	return recs
}

// patched returns recs as ReplayDirs(dirs) must deliver them: each
// directive replaced by dirs[Addr], or DirNone outside the table.
func patched(recs []Record, dirs []isa.Directive) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		r.Dir = isa.DirNone
		if r.Addr >= 0 && r.Addr < int64(len(dirs)) {
			r.Dir = dirs[r.Addr]
		}
		out[i] = r
	}
	return out
}

// testDirs builds a directive table covering part of the address range, so
// ReplayDirs exercises both the in-table and out-of-table patch paths.
func testDirs(rng *rand.Rand) []isa.Directive {
	dirs := make([]isa.Directive, 1<<19) // half the address space
	for i := range dirs {
		dirs[i] = isa.Directive(rng.Intn(3))
	}
	return dirs
}

// TestColumnarMatchesAoSReplay is the core round-trip test: the columnar
// Recorder must replay bit-identically to the array-of-structs stream it
// recorded, across chunk boundaries and with a partial staged tail.
func TestColumnarMatchesAoSReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := randomRecords(rng, recorderChunkSize+recorderChunkSize/2)
	col := recordAll(recs)

	var gotR capture
	col.Replay(&gotR)
	if !reflect.DeepEqual(recs, gotR.recs) {
		t.Fatal("Replay differs from the recorded stream")
	}

	dirs := testDirs(rng)
	var gotD capture
	col.ReplayDirs(dirs, &gotD)
	if !reflect.DeepEqual(patched(recs, dirs), gotD.recs) {
		t.Fatal("ReplayDirs differs from the patched recorded stream")
	}
}

func TestColumnarMatchesAoSMultiEval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	recs := randomRecords(rng, recorderChunkSize+777)
	col := recordAll(recs)
	dirs := testDirs(rng)

	var a, b, c capture
	saved := col.MultiEval(
		EvalConfig{Consumer: &a},
		EvalConfig{Dirs: dirs, Consumer: &b},
		EvalConfig{Dirs: dirs[:100], Consumer: &c},
	)
	if saved != 2 {
		t.Fatalf("MultiEval saved = %d, want 2", saved)
	}
	want := [][]Record{recs, patched(recs, dirs), patched(recs, dirs[:100])}
	for i, got := range [][]Record{a.recs, b.recs, c.recs} {
		if !reflect.DeepEqual(want[i], got) {
			t.Fatalf("MultiEval config %d differs from the recorded stream", i)
		}
	}
}

// TestSpilledMatchesResident replays the same stream under a range of
// memory budgets — fully resident, partially spilled, fully spilled — and
// requires every mode to be bit-identical to the unbudgeted recorder.
func TestSpilledMatchesResident(t *testing.T) {
	const n = 4*recorderChunkSize + 123
	rng := rand.New(rand.NewSource(3))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
	}
	record := func(budget int64) *Recorder {
		rc := NewRecorder()
		rc.SetMemBudget(budget)
		for i := range recs {
			rc.Consume(&recs[i])
		}
		rc.Seal()
		return rc
	}

	resident := record(0)
	defer resident.Close()
	var want capture
	resident.Replay(&want)
	if resident.SpilledChunks() != 0 {
		t.Fatalf("unbudgeted recorder spilled %d chunks", resident.SpilledChunks())
	}
	if !reflect.DeepEqual(recs, want.recs) {
		t.Fatal("resident Replay differs from the recorded stream")
	}

	dirs := testDirs(rng)
	var wantDirs capture
	resident.ReplayDirs(dirs, &wantDirs)
	if !reflect.DeepEqual(patched(recs, dirs), wantDirs.recs) {
		t.Fatal("resident ReplayDirs differs from the patched recorded stream")
	}

	for _, budget := range []int64{1, 64 << 10, 1 << 20} {
		rc := record(budget)
		if rc.SpilledChunks() == 0 {
			t.Fatalf("budget %d: nothing spilled (test not exercising the spill path)", budget)
		}
		if rc.BytesResident() > budget && rc.SpilledChunks() < 5 {
			t.Errorf("budget %d: resident %d bytes over budget", budget, rc.BytesResident())
		}
		if rc.Len() != n {
			t.Fatalf("budget %d: Len = %d, want %d", budget, rc.Len(), n)
		}

		var got capture
		rc.Replay(&got)
		if !reflect.DeepEqual(want.recs, got.recs) {
			t.Fatalf("budget %d: spilled Replay differs from resident", budget)
		}
		var gotDirs capture
		rc.ReplayDirs(dirs, &gotDirs)
		if !reflect.DeepEqual(wantDirs.recs, gotDirs.recs) {
			t.Fatalf("budget %d: spilled ReplayDirs differs from resident", budget)
		}

		var m1, m2 capture
		rc.MultiEval(EvalConfig{Consumer: &m1}, EvalConfig{Dirs: dirs, Consumer: &m2})
		if !reflect.DeepEqual(want.recs, m1.recs) || !reflect.DeepEqual(wantDirs.recs, m2.recs) {
			t.Fatalf("budget %d: spilled MultiEval differs from resident", budget)
		}

		if err := rc.Close(); err != nil {
			t.Fatalf("budget %d: Close: %v", budget, err)
		}
	}
}

// TestSpilledConcurrentReplays drives several goroutines through every
// replay path of one spilled, sealed recorder; each pass owns its own
// prefetcher, so concurrent passes must not interfere. Run under -race by
// the CI spill job.
func TestSpilledConcurrentReplays(t *testing.T) {
	const n = 3 * recorderChunkSize
	rc := NewRecorder()
	rc.SetMemBudget(1) // spill everything
	for i := int64(0); i < n; i++ {
		r := synthRecord(i)
		rc.Consume(&r)
	}
	rc.Seal()
	defer rc.Close()
	if rc.SpilledChunks() != 3 {
		t.Fatalf("SpilledChunks = %d, want 3", rc.SpilledChunks())
	}

	var want capture
	rc.Replay(&want)
	dirs := make([]isa.Directive, 500)
	for i := range dirs {
		dirs[i] = isa.DirStride
	}

	var wg sync.WaitGroup
	errs := make(chan string, 12)
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			var got capture
			rc.Replay(&got)
			if !reflect.DeepEqual(want.recs, got.recs) {
				errs <- "concurrent Replay differs"
			}
		}()
		go func() {
			defer wg.Done()
			var got capture
			rc.ReplayDirs(dirs, &got)
			if len(got.recs) != n {
				errs <- "concurrent ReplayDirs short"
			}
		}()
		go func() {
			defer wg.Done()
			var a, b capture
			rc.MultiEval(EvalConfig{Consumer: &a}, EvalConfig{Dirs: dirs, Consumer: &b})
			if !reflect.DeepEqual(want.recs, a.recs) || len(b.recs) != n {
				errs <- "concurrent MultiEval differs"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSpillAccounting pins the storage counters: encoded bytes split between
// resident and spilled, and Bytes() reflecting only the resident share.
func TestSpillAccounting(t *testing.T) {
	rc := NewRecorder()
	rc.SetMemBudget(1)
	for i := int64(0); i < 2*recorderChunkSize+10; i++ {
		r := synthRecord(i)
		rc.Consume(&r)
	}
	// Two full chunks flushed; 10 records still staged.
	if rc.SpilledChunks() != 2 {
		t.Fatalf("SpilledChunks = %d, want 2", rc.SpilledChunks())
	}
	if rc.BytesResident() != 0 {
		t.Errorf("BytesResident = %d, want 0 under a 1-byte budget", rc.BytesResident())
	}
	if rc.EncodedBytes() == 0 {
		t.Error("EncodedBytes = 0 after two flushed chunks")
	}
	if got, want := rc.Bytes(), int64(10)*recordMemBytes; got != want {
		t.Errorf("Bytes = %d, want %d (staging tail only)", got, want)
	}
	rc.Seal() // flushes the tail as a third spilled chunk
	if rc.SpilledChunks() != 3 {
		t.Errorf("SpilledChunks after Seal = %d, want 3", rc.SpilledChunks())
	}
	if rc.Bytes() != 0 {
		t.Errorf("Bytes after Seal = %d, want 0", rc.Bytes())
	}
	if rc.Close() != nil {
		t.Error("Close failed")
	}
	if rc.Close() != nil {
		t.Error("second Close not idempotent")
	}
}

// TestSpillBudgetKeepsHeadResident checks the budget admits chunks until
// full rather than spilling everything: with room for roughly one encoded
// chunk, the first chunk stays resident and later ones spill.
func TestSpillBudgetKeepsHeadResident(t *testing.T) {
	probe := NewRecorder()
	for i := int64(0); i < recorderChunkSize; i++ {
		r := synthRecord(i)
		probe.Consume(&r)
	}
	oneChunk := probe.EncodedBytes()
	if oneChunk == 0 {
		t.Fatal("probe chunk did not flush")
	}

	rc := NewRecorder()
	rc.SetMemBudget(oneChunk + oneChunk/2)
	for i := int64(0); i < 3*recorderChunkSize; i++ {
		r := synthRecord(i)
		rc.Consume(&r)
	}
	rc.Seal()
	defer rc.Close()
	if rc.SpilledChunks() == 0 || rc.BytesResident() == 0 {
		t.Fatalf("want a resident head and a spilled tail; resident=%d spilled=%d",
			rc.BytesResident(), rc.SpilledChunks())
	}
	var got capture
	rc.Replay(&got)
	if int64(len(got.recs)) != rc.Len() {
		t.Fatalf("mixed resident/spilled replay returned %d records, want %d", len(got.recs), rc.Len())
	}
}
