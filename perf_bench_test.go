// Substrate performance benchmarks for the simulation hot path: raw VM
// stepping throughput, trace recording overhead, and the record-once/
// replay-many cache against per-configuration re-execution. These are the
// numbers DESIGN.md's Performance section and scripts/bench.sh track
// across PRs.
package repro

import (
	"testing"
	"unsafe"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/parallel"
	"repro/internal/predictor"
	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// BenchmarkVMSteps measures raw interpreter throughput with no consumers
// attached, reporting mega-instructions per second.
func BenchmarkVMSteps(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		m, err := vm.New(prog, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(); err != nil {
			b.Fatal(err)
		}
		total += m.InstructionsRetired()
	}
	b.StopTimer()
	reportMIPS(b, total)
}

// BenchmarkVMStepsRecording measures interpreter throughput with the trace
// recorder attached — the cost of producing the replay cache.
func BenchmarkVMStepsRecording(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder()
		n, err := workload.Run(prog, rec)
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.StopTimer()
	reportMIPS(b, total)
}

// BenchmarkVMStepsRecordingScalar measures the same recording run through
// the VM's per-record step loop: wrapping the Recorder in a plain
// ConsumerFunc hides its column stage, so every retired instruction is
// materialized as a Record and delivered through Consume into the same
// Recorder. The ratio scalar/fused is the recording speedup bench_smoke.sh
// gates on — a machine-independent measure of what the fused
// execute+encode loop buys.
func BenchmarkVMStepsRecordingScalar(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder()
		n, err := workload.Run(prog, trace.ConsumerFunc(rec.Consume))
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.StopTimer()
	reportMIPS(b, total)
}

// BenchmarkReplayVsReexecute compares feeding one consumer (the profile
// collector) from a live re-execution against a replay of the recorded
// trace — the per-configuration cost the threshold-sweep drivers pay.
func BenchmarkReplayVsReexecute(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder()
	if _, err := workload.Run(prog, rec); err != nil {
		b.Fatal(err)
	}

	b.Run("reexecute", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			col := profiler.NewCollector()
			n, err := workload.Run(prog, col)
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		b.StopTimer()
		reportMIPS(b, total)
	})
	b.Run("replay", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			col := profiler.NewCollector()
			rec.Replay(col)
			total += rec.Len()
		}
		b.StopTimer()
		reportMIPS(b, total)
	})
}

// BenchmarkThresholdSweep compares the full multi-configuration evaluation
// pattern of the Section 5 drivers: one prediction-engine run per
// threshold, either by re-executing the annotated program each time or by
// replaying the recorded evaluation trace under each annotation's
// directives.
func BenchmarkThresholdSweep(b *testing.B) {
	ctx := experiments.NewContext()
	bench := "gcc"
	thresholds := experiments.DefaultThresholds
	// Pre-resolve annotated programs so both arms measure evaluation only.
	progs := make(map[float64]*program.Program, len(thresholds))
	for _, th := range thresholds {
		p, _, err := ctx.Annotated(bench, th)
		if err != nil {
			b.Fatal(err)
		}
		progs[th] = p
	}

	newEngine := func() *vpsim.Engine {
		table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
		if err != nil {
			b.Fatal(err)
		}
		return vpsim.NewProfileEngine(table)
	}

	b.Run("reexecute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, th := range thresholds {
				engine := newEngine()
				if _, err := workload.Run(progs[th], engine); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		rec, err := ctx.EvalTrace(bench)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, th := range thresholds {
				engine := newEngine()
				rec.ReplayDirs(trace.DirsOf(progs[th].Text), engine)
			}
		}
	})
}

// BenchmarkMultiEvalSweep is the headline single-pass-evaluation number:
// the five-threshold sweep evaluated as five separate directive-patched
// replays versus one MultiEval pass feeding all five engines. The walk over
// the trace dominates the per-engine table update, so the single pass
// approaches a ×len(thresholds) win.
func BenchmarkMultiEvalSweep(b *testing.B) {
	ctx := experiments.NewContext()
	bench := "gcc"
	thresholds := experiments.DefaultThresholds
	dirs := make([][]isa.Directive, len(thresholds))
	for i, th := range thresholds {
		p, _, err := ctx.Annotated(bench, th)
		if err != nil {
			b.Fatal(err)
		}
		dirs[i] = trace.DirsOf(p.Text)
	}
	rec, err := ctx.EvalTrace(bench)
	if err != nil {
		b.Fatal(err)
	}
	newEngine := func() *vpsim.Engine {
		table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
		if err != nil {
			b.Fatal(err)
		}
		return vpsim.NewProfileEngine(table)
	}

	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range thresholds {
				rec.ReplayDirs(dirs[k], newEngine())
			}
		}
	})
	b.Run("multieval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfgs := make([]trace.EvalConfig, len(thresholds))
			for k := range thresholds {
				cfgs[k] = trace.EvalConfig{Dirs: dirs[k], Consumer: newEngine()}
			}
			rec.MultiEval(cfgs...)
		}
	})

	// The walkonly pair isolates the pass-merging machinery from
	// predictor-table work: near-free consumers on the undirected stream, so
	// separate costs len(thresholds) trace walks where multieval costs one.
	// On an idle core hardware prefetch hides the extra streams and the pair
	// sits near parity — what it guards is the machinery's overhead (a
	// per-record dispatch bug shows up as a clear ratio drop), which is why
	// scripts/bench_smoke.sh gates on it rather than on the engine pair,
	// whose table-update-dominated ratio swings with machine noise.
	b.Run("walkonly-separate", func(b *testing.B) {
		var n int64
		for i := 0; i < b.N; i++ {
			for range thresholds {
				rec.Replay(trace.ConsumerFunc(func(r *trace.Record) { n++ }))
			}
		}
	})
	b.Run("walkonly-multieval", func(b *testing.B) {
		var n int64
		for i := 0; i < b.N; i++ {
			cfgs := make([]trace.EvalConfig, len(thresholds))
			for k := range thresholds {
				cfgs[k] = trace.EvalConfig{Consumer: trace.ConsumerFunc(func(r *trace.Record) { n++ })}
			}
			rec.MultiEval(cfgs...)
		}
	})
}

// BenchmarkTraceStore measures the columnar trace store against the plain
// array-of-structs layout it replaced: walk throughput for a resident
// []trace.Record slice, the resident columnar store and the fully-spilled
// columnar store, plus serialization cost per record for the VPTRC02 file
// format. The walk legs report memB/rec (in-memory footprint per record);
// the disk leg reports diskB/rec. scripts/bench_smoke.sh gates on the
// columnar walk against the slice walk and on ≥3x memory / ≥2x disk
// compression against the 56-byte Record and the 40-byte VPTRC01 record.
func BenchmarkTraceStore(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	col := trace.NewRecorder()
	spill := trace.NewRecorder()
	spill.SetMemBudget(1)
	if _, err := workload.Run(prog, trace.Tee{col, spill}); err != nil {
		b.Fatal(err)
	}
	col.Seal()
	spill.Seal()
	b.Cleanup(func() { col.Close(); spill.Close() })
	if spill.SpilledChunks() == 0 {
		b.Fatal("spill recorder did not spill")
	}
	recs := make([]trace.Record, 0, col.Len())
	col.Replay(trace.ConsumerFunc(func(r *trace.Record) { recs = append(recs, *r) }))

	walk := func(replay func(trace.Consumer), memBytes func() int64) func(b *testing.B) {
		return func(b *testing.B) {
			var total, seen int64
			for i := 0; i < b.N; i++ {
				replay(trace.ConsumerFunc(func(r *trace.Record) { seen++ }))
				total += int64(len(recs))
			}
			b.StopTimer()
			if seen != total {
				b.Fatalf("replayed %d records, want %d", seen, total)
			}
			reportMIPS(b, total)
			b.ReportMetric(float64(memBytes())/float64(len(recs)), "memB/rec")
		}
	}
	b.Run("walk-aos", walk(func(c trace.Consumer) {
		for i := range recs {
			c.Consume(&recs[i])
		}
	}, func() int64 { return int64(len(recs)) * int64(unsafe.Sizeof(trace.Record{})) }))
	b.Run("walk-columnar", walk(func(c trace.Consumer) { col.Replay(c) }, col.Bytes))
	// Bytes() is ~0 for a fully spilled store; the honest footprint is the
	// replay working set (resident chunks + double-buffered readback).
	b.Run("walk-spill", walk(func(c trace.Consumer) { spill.Replay(c) }, spill.ReplayResidentBytes))

	b.Run("disk-v2", func(b *testing.B) {
		var total int64
		var bytes int64
		for i := 0; i < b.N; i++ {
			cw := &countWriter{}
			tw, err := trace.NewWriter(cw)
			if err != nil {
				b.Fatal(err)
			}
			col.Replay(tw)
			if err := tw.Close(); err != nil {
				b.Fatal(err)
			}
			total += tw.Count()
			bytes = cw.n
		}
		b.StopTimer()
		reportMIPS(b, total)
		b.ReportMetric(float64(bytes)/float64(col.Len()), "diskB/rec")
	})
}

// BenchmarkBatchKernels measures the batch column-kernel replay path
// against per-record replay of the same consumer on the same sealed trace
// (a plain ConsumerFunc hides the batch entry point, so Replay takes the
// per-record walk). The
// walkonly pair is the machine-independent headline (a near-free consumer,
// so the ratio isolates decode + dispatch — the overhead the batch path
// removes); scripts/bench_smoke.sh gates on it staying ≥ 2x. The profiler
// and engine pairs show how much of the win survives under real
// consumer work. All legs report ns/rec.
func BenchmarkBatchKernels(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder()
	if _, err := workload.Run(prog, rec); err != nil {
		b.Fatal(err)
	}
	rec.Seal()

	// pair runs one consumer family twice: the scalar leg delivers through
	// the consumer's per-record Consume, the batch leg hands Replay the
	// consumer itself.
	pair := func(name string, run func(b *testing.B, deliver func(trace.BatchConsumer) trace.Consumer)) {
		b.Run(name+"-scalar", func(b *testing.B) {
			run(b, func(c trace.BatchConsumer) trace.Consumer { return trace.ConsumerFunc(c.Consume) })
		})
		b.Run(name+"-batch", func(b *testing.B) {
			run(b, func(c trace.BatchConsumer) trace.Consumer { return c })
		})
	}

	reportNsPerRec := func(b *testing.B, total int64) {
		reportMIPS(b, total)
		if total > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/rec")
		}
	}

	pair("walkonly", func(b *testing.B, deliver func(trace.BatchConsumer) trace.Consumer) {
		var total int64
		for i := 0; i < b.N; i++ {
			var ct trace.Counter
			rec.Replay(deliver(&ct))
			if ct.Records != rec.Len() {
				b.Fatalf("replayed %d records, want %d", ct.Records, rec.Len())
			}
			total += ct.Records
		}
		b.StopTimer()
		reportNsPerRec(b, total)
	})
	pair("profiler", func(b *testing.B, deliver func(trace.BatchConsumer) trace.Consumer) {
		var total int64
		for i := 0; i < b.N; i++ {
			rec.Replay(deliver(profiler.NewCollector()))
			total += rec.Len()
		}
		b.StopTimer()
		reportNsPerRec(b, total)
	})
	pair("engine", func(b *testing.B, deliver func(trace.BatchConsumer) trace.Consumer) {
		var total int64
		for i := 0; i < b.N; i++ {
			table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
			if err != nil {
				b.Fatal(err)
			}
			rec.Replay(deliver(vpsim.NewProfileEngine(table)))
			total += rec.Len()
		}
		b.StopTimer()
		reportNsPerRec(b, total)
	})
}

// countWriter counts bytes and discards them — serialization cost without
// filesystem noise.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// BenchmarkAllArtifactsParallel times the full paper-artifact registry from
// a cold cache, sequentially versus on the fan-out scheduler. The parallel
// leg's win tracks the core count (it is ~1× on a single-CPU machine); the
// rendered artifacts are bit-identical either way (see
// experiments.TestRegistryMatchesCommittedResults).
func BenchmarkAllArtifactsParallel(b *testing.B) {
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			ctx := experiments.NewContext()
			ctx.Workers = workers
			for _, o := range experiments.RunAll(ctx, experiments.Registry, workers) {
				if o.Err != nil {
					b.Fatal(o.Err)
				}
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, parallel.DefaultLimit()) })
}

func reportMIPS(b *testing.B, totalInstructions int64) {
	if b.N == 0 {
		return
	}
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(totalInstructions)/secs/1e6, "Minstr/s")
	}
	b.ReportMetric(float64(totalInstructions)/float64(b.N), "instructions/op")
}
