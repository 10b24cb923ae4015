package trace

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/isa"
)

// TestMultiEvalMatchesSeparateReplays: each configuration of a MultiEval
// pass must observe exactly the record stream its own Replay/ReplayDirs
// call would have produced — at 1, 2 and 4 procs (one lane, and
// configurations dealt over several lanes), for 1 to 7 configurations
// mixing batch and scalar consumers, on a sealed trace and on an unsealed
// one with a staged tail.
func TestMultiEvalMatchesSeparateReplays(t *testing.T) {
	const n = recorderChunkSize + 321 // cross a chunk boundary
	record := func(seal bool) *Recorder {
		rc := NewRecorder()
		for i := int64(0); i < n; i++ {
			r := synthRecord(i)
			rc.Consume(&r)
		}
		if seal {
			rc.Seal()
		}
		return rc
	}

	// Three directive tables of different shapes, plus a plain (nil) config.
	mkDirs := func(size int, f func(i int) isa.Directive) []isa.Directive {
		dirs := make([]isa.Directive, size)
		for i := range dirs {
			dirs[i] = f(i)
		}
		return dirs
	}
	tables := [][]isa.Directive{
		nil,
		mkDirs(1000, func(i int) isa.Directive { return isa.DirStride }),
		mkDirs(500, func(i int) isa.Directive {
			if i%2 == 0 {
				return isa.DirLastValue
			}
			return isa.DirNone
		}),
		mkDirs(10, func(i int) isa.Directive { return isa.DirStride }), // most addrs out of range
	}

	for _, sealed := range []bool{true, false} {
		rc := record(sealed)
		// Separate replays — the baseline semantics.
		want := make([]capture, len(tables))
		for i, dirs := range tables {
			if dirs == nil {
				rc.Replay(&want[i])
			} else {
				rc.ReplayDirs(dirs, &want[i])
			}
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for ncfg := 1; ncfg <= 7; ncfg++ {
				// Config j uses table j%4 and is a batch kernel unless j%3
				// == 0, so plain and patched batch kernels follow each other
				// within a lane at every proc count.
				cfgs := make([]EvalConfig, ncfg)
				streams := make([]*[]Record, ncfg)
				for j := range cfgs {
					cfgs[j].Dirs = tables[j%len(tables)]
					if j%3 != 0 {
						c := &batchCapture{}
						cfgs[j].Consumer, streams[j] = c, &c.recs
					} else {
						c := &capture{}
						cfgs[j].Consumer, streams[j] = c, &c.recs
					}
				}
				passesBefore := rc.Passes()
				saved := rc.MultiEval(cfgs...)
				if want := int64(ncfg - 1); saved != want {
					t.Errorf("sealed=%v procs=%d configs=%d: passes saved = %d, want %d", sealed, procs, ncfg, saved, want)
				}
				if passes := rc.Passes() - passesBefore; passes != 1 {
					t.Errorf("sealed=%v procs=%d configs=%d: MultiEval took %d passes over the buffer, want 1",
						sealed, procs, ncfg, passes)
				}
				for j := range cfgs {
					if !slices.Equal(*streams[j], want[j%len(tables)].recs) {
						t.Fatalf("sealed=%v procs=%d configs=%d: config %d stream differs from separate replay",
							sealed, procs, ncfg, j)
					}
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

// panicBatch is a batch kernel that panics on its first batch.
type panicBatch struct{ capture }

func (panicBatch) ConsumeBatch(*Batch) { panic("boom") }

// TestMultiEvalLanePanic: a consumer panic on any lane reaches the caller,
// after every lane has stopped.
func TestMultiEvalLanePanic(t *testing.T) {
	rc := NewRecorder()
	for i := int64(0); i < 3*recorderChunkSize+5; i++ {
		r := synthRecord(i)
		rc.Consume(&r)
	}
	rc.Seal()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for bad := 0; bad < 4; bad++ {
		cfgs := make([]EvalConfig, 4)
		for j := range cfgs {
			cfgs[j].Consumer = &batchCapture{}
		}
		cfgs[bad].Consumer = &panicBatch{}
		func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Errorf("panicking config %d: recovered %v, want boom", bad, p)
				}
			}()
			rc.MultiEval(cfgs...)
		}()
	}
}

func TestMultiEvalEmpty(t *testing.T) {
	rc := NewRecorder()
	r := synthRecord(0)
	rc.Consume(&r)
	rc.Seal()
	if saved := rc.MultiEval(); saved != 0 {
		t.Errorf("MultiEval() saved = %d, want 0", saved)
	}
	var got capture
	if saved := rc.MultiEval(EvalConfig{Consumer: &got}); saved != 0 {
		t.Errorf("single-config MultiEval saved = %d, want 0", saved)
	}
	if len(got.recs) != 1 {
		t.Errorf("single-config MultiEval delivered %d records, want 1", len(got.recs))
	}
}

func TestPassesCounter(t *testing.T) {
	rc := NewRecorder()
	r := synthRecord(0)
	rc.Consume(&r)
	rc.Seal()
	var a, b capture
	rc.Replay(&a)
	rc.ReplayDirs(nil, &b)
	rc.MultiEval(EvalConfig{Consumer: &a}, EvalConfig{Consumer: &b})
	if got := rc.Passes(); got != 3 {
		t.Errorf("Passes = %d, want 3", got)
	}
}
