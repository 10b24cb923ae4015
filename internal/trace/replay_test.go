package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/isa"
)

// synthRecord builds a deterministic, fully populated record for index i,
// canonical in that MemAddr is set only where HasMem is.
func synthRecord(i int64) Record {
	r := Record{
		Addr:    i % 1000,
		Op:      isa.OpADD,
		Dir:     isa.Directive(i % 3),
		HasDest: i%2 == 0,
		DestFP:  i%5 == 0,
		Dest:    isa.Reg(i % 32),
		Value:   i * 0x9E3779B9,
		Phase:   int(i % 2),
		Seq:     i,
		Taken:   i%7 == 0,
		HasMem:  i%3 == 0,
	}
	if r.HasMem {
		r.MemAddr = i * 13
	}
	if i%2 == 0 {
		r.Reads[0] = RegRead{Valid: true, Reg: isa.Reg(i % 32)}
	}
	if i%4 == 0 {
		r.Reads[1] = RegRead{Valid: true, FP: true, Reg: isa.Reg((i + 5) % 32)}
	}
	return r
}

type capture struct{ recs []Record }

func (c *capture) Consume(r *Record) { c.recs = append(c.recs, *r) }

func TestRecorderRoundTrip(t *testing.T) {
	// Cross several chunk boundaries to cover the partial-final-chunk path.
	const n = recorderChunkSize*2 + 17
	rc := NewRecorder()
	var live capture
	for i := int64(0); i < n; i++ {
		r := synthRecord(i)
		live.Consume(&r)
		rc.Consume(&r)
	}
	if rc.Len() != n {
		t.Fatalf("Len = %d, want %d", rc.Len(), n)
	}
	var replayed capture
	rc.Replay(&replayed)
	if len(replayed.recs) != n {
		t.Fatalf("replayed %d records, want %d", len(replayed.recs), n)
	}
	for i := range live.recs {
		if live.recs[i] != replayed.recs[i] {
			t.Fatalf("record %d differs:\nlive   %+v\nreplay %+v", i, live.recs[i], replayed.recs[i])
		}
	}
}

// TestNonMemoryMemAddrReplaysAsZero: MemAddr is kept only where HasMem is
// set. A stream that carries addresses on other records too replays them as
// 0 — from flushed chunks, from the unsealed staging tail, and through a
// trace file — with every other field unchanged.
func TestNonMemoryMemAddrReplaysAsZero(t *testing.T) {
	const n = recorderChunkSize + 100 // one flushed chunk and a staged tail
	want := synthStream(0, n)
	recs := append([]Record(nil), want...)
	for i := range recs {
		recs[i].MemAddr = int64(i)*7 + 1
		if recs[i].HasMem {
			want[i].MemAddr = recs[i].MemAddr
		}
	}
	rc := recordAll(recs)
	defer rc.Close()
	var unsealed, sealed capture
	rc.Replay(&unsealed)
	rc.Seal()
	rc.Replay(&sealed)
	r, err := NewReader(bytes.NewReader(encodeFile(t, recs)))
	if err != nil {
		t.Fatal(err)
	}
	file, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]Record{"unsealed": unsealed.recs, "sealed": sealed.recs, "file": file} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s replay differs from the stream with non-memory MemAddr zeroed", name)
		}
	}
}

func TestRecorderMultiConsumerReplay(t *testing.T) {
	rc := NewRecorder()
	for i := int64(0); i < 100; i++ {
		r := synthRecord(i)
		rc.Consume(&r)
	}
	var a, b capture
	rc.Replay(&a, &b)
	if !reflect.DeepEqual(a.recs, b.recs) {
		t.Fatal("multi-consumer replay delivered different streams")
	}
	if len(a.recs) != 100 {
		t.Fatalf("got %d records, want 100", len(a.recs))
	}
}

func TestRecorderExtremeFieldValues(t *testing.T) {
	rc := NewRecorder()
	var live capture
	for i := int64(0); i < 10; i++ {
		r := synthRecord(i)
		if i == 4 {
			r.Addr = 1 << 40
		}
		if i == 7 {
			r.Phase = -3
		}
		live.Consume(&r)
		rc.Consume(&r)
	}
	var replayed capture
	rc.Replay(&replayed)
	if !reflect.DeepEqual(live.recs, replayed.recs) {
		t.Fatalf("replay differs:\nlive   %+v\nreplay %+v", live.recs, replayed.recs)
	}
}

func TestReplayDirsOverride(t *testing.T) {
	rc := NewRecorder()
	for i := int64(0); i < 50; i++ {
		r := synthRecord(i) // Addr = i%1000 = i here
		rc.Consume(&r)
	}
	dirs := make([]isa.Directive, 20) // addresses 20..49 fall beyond the table
	for i := range dirs {
		dirs[i] = isa.DirStride
	}
	var got capture
	rc.ReplayDirs(dirs, &got)
	for i, r := range got.recs {
		want := isa.DirNone
		if r.Addr < 20 {
			want = isa.DirStride
		}
		if r.Dir != want {
			t.Fatalf("record %d (addr %d): dir = %v, want %v", i, r.Addr, r.Dir, want)
		}
		// Everything except Dir must be untouched.
		orig := synthRecord(int64(i))
		r.Dir = orig.Dir
		if r != orig {
			t.Fatalf("record %d mutated beyond Dir:\nwant %+v\ngot  %+v", i, orig, r)
		}
	}
}

func TestDirsOf(t *testing.T) {
	text := []isa.Instruction{
		{Op: isa.OpADD, Dir: isa.DirStride},
		{Op: isa.OpSUB},
		{Op: isa.OpMUL, Dir: isa.DirLastValue},
	}
	want := []isa.Directive{isa.DirStride, isa.DirNone, isa.DirLastValue}
	if got := DirsOf(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("DirsOf = %v, want %v", got, want)
	}
}

func TestRecorderSeal(t *testing.T) {
	rc := NewRecorder()
	r := synthRecord(1)
	rc.Consume(&r)
	if rc.Sealed() {
		t.Fatal("new recorder already sealed")
	}
	rc.Seal()
	rc.Seal() // idempotent
	if !rc.Sealed() {
		t.Fatal("Seal did not stick")
	}
	// Replay still works after sealing.
	var got capture
	rc.Replay(&got)
	if len(got.recs) != 1 || got.recs[0] != r {
		t.Fatalf("replay after seal: got %+v", got.recs)
	}
	// Recording after sealing must panic, not silently mutate the shared
	// buffer.
	defer func() {
		if recover() == nil {
			t.Fatal("Consume on a sealed recorder did not panic")
		}
	}()
	rc.Consume(&r)
}

// goroutineProbe is a per-record consumer that notes the highest goroutine
// count it observes; batchProbe does the same per batch.
type goroutineProbe struct{ peak int }

func (p *goroutineProbe) Consume(*Record) { p.peak = max(p.peak, runtime.NumGoroutine()) }

type batchProbe struct{ goroutineProbe }

func (p *batchProbe) ConsumeBatch(*Batch) { p.peak = max(p.peak, runtime.NumGoroutine()) }

// TestRecordAndReplayStartNoGoroutines: at GOMAXPROCS=4 a Recorder records
// several chunks, and Replay, ReplayDirs and MultiEval replay them over a
// resident and a spilled trace, without starting a goroutine — the count
// is checked after every recorded record and, from inside the consumers,
// throughout every replay pass.
func TestRecordAndReplayStartNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	dirs := make([]isa.Directive, 500)
	for i := range dirs {
		dirs[i] = isa.DirStride
	}
	for _, budget := range []int64{0, 1} {
		rc := NewRecorder()
		rc.SetMemBudget(budget)
		for i := int64(0); i < 3*recorderChunkSize+5; i++ {
			r := synthRecord(i)
			rc.Consume(&r)
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("budget %d: %d goroutines after recording record %d, want %d", budget, n, i, base)
			}
		}
		rc.Seal()
		if budget > 0 && rc.SpilledChunks() == 0 {
			t.Fatal("1-byte budget spilled nothing")
		}
		for _, pass := range []struct {
			name string
			run  func(scalar, batch Consumer)
		}{
			{"Replay", func(scalar, batch Consumer) { rc.Replay(scalar, batch) }},
			{"ReplayDirs", func(scalar, batch Consumer) { rc.ReplayDirs(dirs, scalar, batch) }},
			{"MultiEval", func(scalar, batch Consumer) {
				rc.MultiEval(EvalConfig{Consumer: scalar}, EvalConfig{Dirs: dirs, Consumer: batch},
					EvalConfig{Dirs: dirs, Consumer: &goroutineProbe{}}, EvalConfig{Consumer: &batchProbe{}})
			}},
		} {
			var scalar goroutineProbe
			var batch batchProbe
			pass.run(&scalar, &batch)
			for _, peak := range []int{scalar.peak, batch.peak} {
				if peak == 0 || peak > base {
					t.Errorf("budget %d: %s ran with up to %d goroutines, want %d", budget, pass.name, peak, base)
				}
			}
		}
		rc.Close()
	}
}
