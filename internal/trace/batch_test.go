package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/isa"
)

// batchCapture records every delivered record through both consumer
// contracts, materializing batches record by record through Batch.Record —
// so comparing its stream against the recorded records checks every column
// of every batch, field for field.
type batchCapture struct {
	recs    []Record
	batches int
	scalars int
}

func (c *batchCapture) Consume(r *Record) {
	c.scalars++
	c.recs = append(c.recs, *r)
}

func (c *batchCapture) ConsumeBatch(b *Batch) {
	c.batches++
	if b.N != len(b.Op) || b.N != len(b.Flags) || b.N != len(b.Dest) || 2*b.N != len(b.Reads) ||
		b.N != len(b.Dir) || b.N != len(b.Addr) || b.N != len(b.Value) ||
		b.N != len(b.MemAddr) || b.N != len(b.Phase) || b.N != len(b.Seq) {
		panic("trace: batch column lengths disagree with N")
	}
	var r Record
	for i := 0; i < b.N; i++ {
		b.Record(i, &r)
		c.recs = append(c.recs, r)
	}
}

// TestBatchMatchesScalarReplay is the core batch test: the batch walk and
// the per-record walk a scalar-only consumer takes must both deliver the
// recorded stream for Replay and ReplayDirs, across chunk boundaries and
// with a partial staged tail (which always flows through scalar Consume).
func TestBatchMatchesScalarReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := randomRecords(rng, recorderChunkSize+recorderChunkSize/2)
	rc := recordAll(recs)

	var want capture // scalar-only consumer: takes the per-record walk
	rc.Replay(&want)
	if !reflect.DeepEqual(recs, want.recs) {
		t.Fatal("scalar Replay differs from the recorded stream")
	}
	got := &batchCapture{}
	rc.Replay(got)
	if got.batches == 0 {
		t.Fatal("batch consumer never received a batch")
	}
	if got.scalars != recorderChunkSize/2 {
		t.Fatalf("staged tail delivered %d scalar records, want %d", got.scalars, recorderChunkSize/2)
	}
	if !reflect.DeepEqual(want.recs, got.recs) {
		t.Fatal("batch Replay differs from the scalar reference")
	}

	dirs := testDirs(rng)
	var wantD capture
	rc.ReplayDirs(dirs, &wantD)
	if !reflect.DeepEqual(patched(recs, dirs), wantD.recs) {
		t.Fatal("scalar ReplayDirs differs from the patched recorded stream")
	}
	gotD := &batchCapture{}
	rc.ReplayDirs(dirs, gotD)
	if !reflect.DeepEqual(wantD.recs, gotD.recs) {
		t.Fatal("batch ReplayDirs differs from the scalar reference")
	}

	// The multi-consumer batch fan-out must match too.
	gA, gB := &batchCapture{}, &batchCapture{}
	rc.Replay(gA, gB)
	if !reflect.DeepEqual(want.recs, gA.recs) || !reflect.DeepEqual(want.recs, gB.recs) {
		t.Fatal("multi-consumer batch Replay differs from the scalar reference")
	}
}

// TestBatchMatchesScalarSpilled runs the batch differential across memory
// budgets that spill some or all chunks to disk, covering the batch-owned
// spill readback scratch.
func TestBatchMatchesScalarSpilled(t *testing.T) {
	const n = 4*recorderChunkSize + 123
	rng := rand.New(rand.NewSource(12))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = randomRecord(rng, int64(i))
	}
	dirs := testDirs(rng)
	for _, budget := range []int64{0, 1, 64 << 10, 1 << 20} {
		rc := NewRecorder()
		rc.SetMemBudget(budget)
		for i := range recs {
			rc.Consume(&recs[i])
		}
		rc.Seal()
		if budget > 0 && rc.SpilledChunks() == 0 {
			t.Fatalf("budget %d: nothing spilled", budget)
		}

		var want, wantD capture
		rc.Replay(&want)
		rc.ReplayDirs(dirs, &wantD)
		if !reflect.DeepEqual(recs, want.recs) || !reflect.DeepEqual(patched(recs, dirs), wantD.recs) {
			t.Fatalf("budget %d: scalar replay differs from the recorded stream", budget)
		}

		got, gotD := &batchCapture{}, &batchCapture{}
		rc.Replay(got)
		rc.ReplayDirs(dirs, gotD)
		if !reflect.DeepEqual(want.recs, got.recs) {
			t.Fatalf("budget %d: batch Replay differs from scalar", budget)
		}
		if !reflect.DeepEqual(wantD.recs, gotD.recs) {
			t.Fatalf("budget %d: batch ReplayDirs differs from scalar", budget)
		}

		m1, m2 := &batchCapture{}, &batchCapture{}
		rc.MultiEval(EvalConfig{Consumer: m1}, EvalConfig{Dirs: dirs, Consumer: m2})
		if !reflect.DeepEqual(want.recs, m1.recs) || !reflect.DeepEqual(wantD.recs, m2.recs) {
			t.Fatalf("budget %d: batch MultiEval differs from scalar", budget)
		}
		if err := rc.Close(); err != nil {
			t.Fatalf("budget %d: Close: %v", budget, err)
		}
	}
}

// TestBatchMultiEvalMixed drives MultiEval with batch and scalar consumers
// in the same configuration set (scalar-only consumers such as trace
// writers share walks with batch kernels): every consumer must still
// observe exactly its own ReplayDirs/Replay stream.
func TestBatchMultiEvalMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rc := recordAll(randomRecords(rng, 2*recorderChunkSize+777))
	dirs := testDirs(rng)

	var want, wantD, wantShort capture
	rc.Replay(&want)
	rc.ReplayDirs(dirs, &wantD)
	rc.ReplayDirs(dirs[:100], &wantShort)

	b1, b2 := &batchCapture{}, &batchCapture{}
	var s1, s2 capture
	saved := rc.MultiEval(
		EvalConfig{Consumer: b1},
		EvalConfig{Consumer: &s1},
		EvalConfig{Dirs: dirs, Consumer: b2},
		EvalConfig{Dirs: dirs[:100], Consumer: &s2},
	)
	if saved != 3 {
		t.Fatalf("MultiEval saved = %d, want 3", saved)
	}
	if b1.batches == 0 || b2.batches == 0 {
		t.Fatal("batch consumers did not run on the batch path")
	}
	if !reflect.DeepEqual(want.recs, b1.recs) {
		t.Fatal("mixed MultiEval: plain batch config differs")
	}
	if !reflect.DeepEqual(want.recs, s1.recs) {
		t.Fatal("mixed MultiEval: plain scalar config differs")
	}
	if !reflect.DeepEqual(wantD.recs, b2.recs) {
		t.Fatal("mixed MultiEval: patched batch config differs")
	}
	if !reflect.DeepEqual(wantShort.recs, s2.recs) {
		t.Fatal("mixed MultiEval: patched scalar config differs")
	}
}

// TestBatchFileRoundTrip proves the batch path over traces that crossed the
// file format: a stream written as VPTRC02 and read back into a fresh
// Recorder replays identically on the batch and scalar paths, and matches
// the original stream (v2 preserves all fields and derives Seq from
// position, which this stream satisfies by construction).
func TestBatchFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	orig := randomRecords(rng, recorderChunkSize+345)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		w.Consume(&orig[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRecorder()
	var r Record
	for {
		if err := tr.Next(&r); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatal(err)
		}
		rc.Consume(&r)
	}
	rc.Seal()

	var want capture
	rc.Replay(&want)
	if !reflect.DeepEqual(orig, want.recs) {
		t.Fatal("scalar replay differs from the original stream")
	}
	got := &batchCapture{}
	rc.Replay(got)
	if !reflect.DeepEqual(orig, got.recs) {
		t.Fatal("batch replay differs from the original stream")
	}
}

// TestBatchCounterMatchesScalar pins the Counter batch kernel against its
// per-record Consume over the recorded stream.
func TestBatchCounterMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	recs := randomRecords(rng, recorderChunkSize+99)
	rc := recordAll(recs)
	rc.Seal()

	var scalar, batch Counter
	for i := range recs {
		scalar.Consume(&recs[i])
	}
	rc.Replay(&batch)
	if scalar != batch {
		t.Fatalf("Counter batch kernel %+v differs from scalar %+v", batch, scalar)
	}
}

// TestBatchConcurrentReplays drives concurrent batch replays — plain,
// patched and mixed MultiEval — over one spilled, sealed recorder. Each
// pass owns its batches and spill scratch, so the -race CI job must see no
// sharing.
func TestBatchConcurrentReplays(t *testing.T) {
	const n = 3 * recorderChunkSize
	rc := NewRecorder()
	rc.SetMemBudget(1) // spill everything
	for i := int64(0); i < n; i++ {
		r := synthRecord(i)
		rc.Consume(&r)
	}
	rc.Seal()
	defer rc.Close()

	var want capture
	rc.Replay(&want)
	dirs := make([]isa.Directive, 500)
	for i := range dirs {
		dirs[i] = isa.DirStride
	}
	var wantD capture
	rc.ReplayDirs(dirs, &wantD)

	var wg sync.WaitGroup
	errs := make(chan string, 12)
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			got := &batchCapture{}
			rc.Replay(got)
			if !reflect.DeepEqual(want.recs, got.recs) {
				errs <- "concurrent batch Replay differs"
			}
		}()
		go func() {
			defer wg.Done()
			got := &batchCapture{}
			rc.ReplayDirs(dirs, got)
			if !reflect.DeepEqual(wantD.recs, got.recs) {
				errs <- "concurrent batch ReplayDirs differs"
			}
		}()
		go func() {
			defer wg.Done()
			a := &batchCapture{}
			var b capture
			rc.MultiEval(EvalConfig{Consumer: a}, EvalConfig{Dirs: dirs, Consumer: &b})
			if !reflect.DeepEqual(want.recs, a.recs) || !reflect.DeepEqual(wantD.recs, b.recs) {
				errs <- "concurrent mixed MultiEval differs"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRecordingPooledBuffers checks sealed recorders return their staging
// and encoder scratch to the pools and that recorded data survives: two
// recorders built back to back (the second reusing the first's pooled
// buffers) must hold independent, correct streams.
func TestRecordingPooledBuffers(t *testing.T) {
	build := func(seed int64) (*Recorder, []Record) {
		rng := rand.New(rand.NewSource(seed))
		recs := randomRecords(rng, recorderChunkSize+50)
		rc := recordAll(recs)
		rc.Seal()
		return rc, recs
	}
	rc1, recs1 := build(21)
	rc2, recs2 := build(22)

	var got1, got2 capture
	rc1.Replay(&got1)
	rc2.Replay(&got2)
	if !reflect.DeepEqual(recs1, got1.recs) {
		t.Fatal("first pooled recorder corrupted its stream")
	}
	if !reflect.DeepEqual(recs2, got2.recs) {
		t.Fatal("second pooled recorder corrupted its stream")
	}
}

// TestReplayResidentBytes pins the spill-aware resident accounting: fully
// resident recorders report their encoded bytes, spilled ones add the
// double-buffered readback working set instead of reporting zero.
func TestReplayResidentBytes(t *testing.T) {
	resident := NewRecorder()
	for i := int64(0); i < recorderChunkSize; i++ {
		r := synthRecord(i)
		resident.Consume(&r)
	}
	resident.Seal()
	if got, want := resident.ReplayResidentBytes(), resident.BytesResident(); got != want {
		t.Fatalf("resident ReplayResidentBytes = %d, want %d", got, want)
	}
	if resident.ReplayResidentBytes() == 0 {
		t.Fatal("resident ReplayResidentBytes = 0")
	}

	spilled := NewRecorder()
	spilled.SetMemBudget(1)
	for i := int64(0); i < 2*recorderChunkSize; i++ {
		r := synthRecord(i)
		spilled.Consume(&r)
	}
	spilled.Seal()
	defer spilled.Close()
	if spilled.BytesResident() != 0 {
		t.Fatalf("spilled BytesResident = %d, want 0", spilled.BytesResident())
	}
	got := spilled.ReplayResidentBytes()
	if got <= 0 {
		t.Fatalf("spilled ReplayResidentBytes = %d, want > 0", got)
	}
	// Two read buffers of the largest chunk.
	if max := spilled.EncodedBytes(); got >= 2*max {
		t.Fatalf("spilled ReplayResidentBytes = %d, want < 2*EncodedBytes (%d)", got, 2*max)
	}
}
