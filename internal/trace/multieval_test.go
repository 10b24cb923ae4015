package trace

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/isa"
)

// TestMultiEvalMatchesSeparateReplays: each configuration of a MultiEval
// pass must observe exactly the record stream its own Replay/ReplayDirs
// call would have produced — at 1, 2 and 4 procs, which must not change the
// one-lane pass, for 1 to 7 configurations
// mixing batch and scalar consumers, on a sealed trace, on an unsealed one
// with a staged tail, and on an unsealed one that is all tail.
func TestMultiEvalMatchesSeparateReplays(t *testing.T) {
	record := func(n int64, seal bool) *Recorder {
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

	for _, tc := range []struct {
		n      int64
		sealed bool
	}{
		{recorderChunkSize + 321, true}, // cross a chunk boundary
		{recorderChunkSize + 321, false},
		{321, false},
	} {
		sealed := tc.sealed
		rc := record(tc.n, sealed)
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
					t.Errorf("n=%d sealed=%v procs=%d configs=%d: passes saved = %d, want %d", tc.n, sealed, procs, ncfg, saved, want)
				}
				if passes := rc.Passes() - passesBefore; passes != 1 {
					t.Errorf("n=%d sealed=%v procs=%d configs=%d: MultiEval took %d passes over the buffer, want 1",
						tc.n, sealed, procs, ncfg, passes)
				}
				for j := range cfgs {
					if !slices.Equal(*streams[j], want[j%len(tables)].recs) {
						t.Fatalf("n=%d sealed=%v procs=%d configs=%d: config %d stream differs from separate replay",
							tc.n, sealed, procs, ncfg, j)
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

// TestMultiEvalLanePanic: a consumer panic in any configuration of the pass
// reaches the caller.
func TestMultiEvalLanePanic(t *testing.T) {
	rc := NewRecorder()
	for i := int64(0); i < 3*recorderChunkSize+5; i++ {
		r := synthRecord(i)
		rc.Consume(&r)
	}
	rc.Seal()
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

// groupCapture is a GroupConsumer that captures its stream in PrepareBatch
// and logs the size of every ConsumeGroup call it is a member of.
type groupCapture struct {
	batchCapture
	key    any
	alone  int   // ConsumeBatch calls
	groups []int // sizes of the groups it was scheduled in
	sizes  []int // sizes of the batches it was prepared with
}

func (c *groupCapture) GroupKey() any { return c.key }
func (c *groupCapture) PrepareBatch(b *Batch) {
	c.sizes = append(c.sizes, b.N)
	c.batchCapture.ConsumeBatch(b)
}
func (c *groupCapture) ConsumeBatch(b *Batch) { c.alone++; c.batchCapture.ConsumeBatch(b) }
func (c *groupCapture) ConsumeGroup(_ *Batch, group []GroupConsumer) {
	for _, g := range group {
		g.(*groupCapture).groups = append(g.(*groupCapture).groups, len(group))
	}
}

// TestMultiEvalGroups: a pass groups the GroupConsumers of one lane that
// share a non-nil key — each prepared with its own directive column, then
// scheduled in one ConsumeGroup call per batch — and runs consumers with a
// nil key through ConsumeBatch. MultiEval runs one lane at any proc count;
// an evaluation sink deals its configurations over GOMAXPROCS lanes; both
// are checked at 1, 2 and 4 procs. A consumer listed twice in one lane is
// never grouped with itself.
func TestMultiEvalGroups(t *testing.T) {
	rc := NewRecorder()
	for i := int64(0); i < 2*recorderChunkSize+77; i++ {
		r := synthRecord(i)
		rc.Consume(&r)
	}
	rc.Seal()
	dirs := make([]isa.Directive, 500)
	for i := range dirs {
		dirs[i] = isa.Directive(i % 3)
	}
	keys := []any{"a", "a", nil, "b", "a", "b", nil}
	var plain, patched capture
	rc.Replay(&plain)
	rc.ReplayDirs(dirs, &patched)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, sink := range []bool{false, true} {
			lanes := 1
			if sink {
				lanes = min(procs, len(keys))
			}
			cs := make([]*groupCapture, len(keys))
			cfgs := make([]EvalConfig, len(keys))
			for j, key := range keys {
				cs[j] = &groupCapture{key: key}
				cfgs[j].Consumer = cs[j]
				if j%2 == 1 {
					cfgs[j].Dirs = dirs
				}
			}
			if lanes == 1 {
				// The first consumer again, in the same lane: the pass runs
				// it twice per batch.
				cfgs = append(cfgs, cfgs[0])
			}
			if sink {
				s := NewEvalSink(cfgs...)
				feedColumns(s, plain.recs)
				s.Close()
			} else {
				rc.MultiEval(cfgs...)
			}
			for j, c := range cs {
				want := plain.recs
				if j%2 == 1 {
					want = patched.recs
				}
				if j == 0 && lanes == 1 {
					// Each batch twice in a row: once in the group, once alone.
					want = nil
					for i, lo := 0, 0; i+1 < len(c.sizes); i += 2 {
						chunk := plain.recs[lo : lo+c.sizes[i]]
						want, lo = append(append(want, chunk...), chunk...), lo+c.sizes[i]
					}
					if len(want) != 2*len(plain.recs) || c.groups[1] != 1 {
						t.Fatalf("procs=%d sink=%v: repeated consumer saw %d records for %d, groups %v",
							procs, sink, len(want), len(plain.recs), c.groups[:2])
					}
				}
				if !slices.Equal(c.recs, want) {
					t.Fatalf("procs=%d sink=%v: consumer %d stream differs from its separate replay", procs, sink, j)
				}
				same := 0
				for i, key := range keys {
					if key != nil && key == c.key && i%lanes == j%lanes {
						same++
					}
				}
				switch {
				case c.key == nil && (c.alone != c.batches || len(c.groups) != 0):
					t.Errorf("procs=%d sink=%v: nil-key consumer %d ran %d batches alone of %d, in %d groups",
						procs, sink, j, c.alone, c.batches, len(c.groups))
				case c.key != nil && (c.alone != 0 || len(c.groups) != c.batches || c.groups[0] != same):
					t.Errorf("procs=%d sink=%v: consumer %d with key %v: %d batches alone, groups %v, want a group of %d per batch",
						procs, sink, j, c.key, c.alone, c.groups, same)
				}
			}
		}
	}
}
