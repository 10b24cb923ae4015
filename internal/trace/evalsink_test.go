package trace

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/isa"
)

// feedColumns stages recs into sink the way the VM's dispatch loop does:
// column appends, FlushColumns at every full stage, FlushTail at the end.
func feedColumns(sink *ColumnSink, recs []Record) {
	st := sink.ColumnStage()
	for i := range recs {
		if st.N == st.Cap() {
			st = sink.FlushColumns()
		}
		st.appendRecord(&recs[i])
	}
	sink.FlushTail()
}

// TestEvalSinkMatchesMultiEval: a live stream fed through NewEvalSink must
// give every configuration exactly the stream a recorded MultiEval pass
// gives it — at 1, 2 and 4 procs (one lane on the producing goroutine, or
// several lanes behind a stage-ahead goroutine), for 1 to 7 configurations
// mixing batch and per-record consumers under different directive tables,
// across stage boundaries and a partial tail.
func TestEvalSinkMatchesMultiEval(t *testing.T) {
	recs := make([]Record, 3*recorderChunkSize+321)
	rc := NewRecorder()
	for i := range recs {
		recs[i] = synthRecord(int64(i))
		rc.Consume(&recs[i])
	}
	rc.Seal()
	stride := make([]isa.Directive, 1000)
	for i := range stride {
		stride[i] = isa.DirStride
	}
	tables := [][]isa.Directive{nil, stride, stride[:10]}
	configs := func(n int) ([]EvalConfig, []*[]Record) {
		cfgs := make([]EvalConfig, n)
		streams := make([]*[]Record, n)
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
		return cfgs, streams
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for n := 1; n <= 7; n++ {
			wantCfgs, want := configs(n)
			rc.MultiEval(wantCfgs...)
			gotCfgs, got := configs(n)
			sink := NewEvalSink(gotCfgs...)
			if piped := sink.ahead != nil; piped != (procs > 1 && n > 1) {
				t.Errorf("procs=%d configs=%d: stage-ahead = %v", procs, n, piped)
			}
			feedColumns(sink, recs)
			// FlushTail alone must have delivered everything.
			for j := range want {
				if !slices.Equal(*got[j], *want[j]) {
					t.Fatalf("procs=%d configs=%d: config %d stream differs from MultiEval", procs, n, j)
				}
			}
			sink.Close()
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestEvalSinkLanePanic: a consumer panic on any lane of a pipelined sink
// reaches the producing goroutine, and Close, deferred across that panic,
// leaves no sink goroutine running.
func TestEvalSinkLanePanic(t *testing.T) {
	recs := make([]Record, 3*recorderChunkSize)
	for i := range recs {
		recs[i] = synthRecord(int64(i))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
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
			sink := NewEvalSink(cfgs...)
			defer sink.Close()
			feedColumns(sink, recs)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("panicking config %d: %d goroutines left running, want %d", bad, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
