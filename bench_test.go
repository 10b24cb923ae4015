// Package repro's benchmark harness regenerates every table and figure of
// the paper under `go test -bench`. One benchmark per paper artifact runs
// the full pipeline (train-input profiling → annotation → evaluation) from a
// cold cache and reports headline numbers as custom metrics, so `go test
// -bench=. -benchmem` both times the harness and records the reproduced
// results. Ablation benchmarks sweep the design parameters DESIGN.md calls
// out (table geometry, counter width, hybrid split, misprediction penalty).
package repro

import (
	"fmt"
	"testing"

	"repro/internal/classify"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/predictor"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// benchArtifact regenerates one registry entry per iteration from a fresh
// context (no caches), so the reported time covers the entire pipeline.
func benchArtifact(b *testing.B, id string) {
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext()
		if _, err := r.Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable21(b *testing.B)  { benchArtifact(b, "table2.1") }
func BenchmarkFigure22(b *testing.B) { benchArtifact(b, "fig2.2") }
func BenchmarkFigure23(b *testing.B) { benchArtifact(b, "fig2.3") }
func BenchmarkFigure41(b *testing.B) { benchArtifact(b, "fig4.1") }
func BenchmarkFigure42(b *testing.B) { benchArtifact(b, "fig4.2") }
func BenchmarkFigure43(b *testing.B) { benchArtifact(b, "fig4.3") }

// Figures 5.1 and 5.2 share one driver (they are two views of the same
// classification-accuracy measurement), as do figures 5.3 and 5.4.
func BenchmarkFigure51And52(b *testing.B) { benchArtifact(b, "fig5.1+5.2") }
func BenchmarkTable51(b *testing.B)       { benchArtifact(b, "table5.1") }
func BenchmarkFigure53And54(b *testing.B) { benchArtifact(b, "fig5.3+5.4") }

// BenchmarkTable52 regenerates the ILP table and reports the paper's
// headline numbers as metrics: the profile-guided ILP gain (threshold 90%)
// for m88ksim and vortex.
func BenchmarkTable52(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext()
		res, err := experiments.RunTable52(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row.Bench {
			case "m88ksim":
				b.ReportMetric(row.Prof[0], "m88ksim-prof90-%")
			case "vortex":
				b.ReportMetric(row.Prof[0], "vortex-prof90-%")
			}
		}
	}
}

// BenchmarkExtensions regenerates the four extension experiments
// (critical path, branch sensitivity, FCM, store values).
func BenchmarkExtCritPath(b *testing.B)   { benchArtifact(b, "ext:critpath") }
func BenchmarkExtBranch(b *testing.B)     { benchArtifact(b, "ext:branch") }
func BenchmarkExtFCM(b *testing.B)        { benchArtifact(b, "ext:fcm") }
func BenchmarkExtStoreValue(b *testing.B) { benchArtifact(b, "ext:storeval") }
func BenchmarkExtSched(b *testing.B)      { benchArtifact(b, "ext:sched") }
func BenchmarkExtHybrid(b *testing.B)     { benchArtifact(b, "ext:hybrid") }
func BenchmarkExtAutotune(b *testing.B)   { benchArtifact(b, "ext:autotune") }

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationTableSize sweeps the prediction-table geometry on the
// table-pressure-heavy gcc benchmark: as the table shrinks, the profile
// scheme's allocation filtering matters more.
func BenchmarkAblationTableSize(b *testing.B) {
	for _, entries := range []int{128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			ctx := experiments.NewContext()
			prog, _, err := ctx.Annotated("gcc", 90)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				table, err := predictor.NewTable(predictor.Stride,
					predictor.TableConfig{Entries: entries, Assoc: 2})
				if err != nil {
					b.Fatal(err)
				}
				engine := vpsim.NewProfileEngine(table)
				if _, err := workload.Run(prog, engine); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(engine.Stats().PredictionAccuracy(), "accuracy-%")
				b.ReportMetric(float64(table.Evictions), "evictions")
			}
		})
	}
}

// BenchmarkAblationCounterWidth sweeps the saturating-counter width of the
// hardware classifier: wider counters filter more mispredictions but adapt
// more slowly.
func BenchmarkAblationCounterWidth(b *testing.B) {
	for _, bits := range []uint8{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := classify.SatCounter{Bits: bits, TrustAt: 1 << (bits - 1), Initial: 1 << (bits - 1)}
				pol, err := classify.NewFSMPolicy(sc)
				if err != nil {
					b.Fatal(err)
				}
				table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
				if err != nil {
					b.Fatal(err)
				}
				engine := vpsim.NewFSMEngine(table, pol)
				if _, err := workload.BuildAndRun("go", workload.EvaluationInput(), engine); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(engine.Stats().MispredClassAccuracy(), "mispred-filter-%")
				b.ReportMetric(engine.Stats().CorrectClassAccuracy(), "correct-admit-%")
			}
		})
	}
}

// BenchmarkAblationHybridSplit sweeps the stride/last-value capacity split
// of the hybrid predictor on vortex (which tags both classes heavily).
func BenchmarkAblationHybridSplit(b *testing.B) {
	for _, strideEntries := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("stride=%d", strideEntries), func(b *testing.B) {
			ctx := experiments.NewContext()
			prog, _, err := ctx.Annotated("vortex", 90)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				h, err := predictor.NewHybrid(predictor.HybridConfig{
					StrideEntries: strideEntries, StrideAssoc: 2,
					LastEntries: 512, LastAssoc: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				engine := vpsim.NewHybridEngine(h)
				if _, err := workload.Run(prog, engine); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(engine.Stats().PredictionAccuracy(), "accuracy-%")
			}
		})
	}
}

// BenchmarkAblationPenalty sweeps the value-misprediction penalty of the
// abstract machine: the paper uses 1 cycle; harsher penalties erode the ILP
// gain and reward the stricter thresholds.
func BenchmarkAblationPenalty(b *testing.B) {
	for _, penalty := range []int64{0, 1, 3, 5} {
		b.Run(fmt.Sprintf("penalty=%d", penalty), func(b *testing.B) {
			ctx := experiments.NewContext()
			prog, _, err := ctx.Annotated("vortex", 90)
			if err != nil {
				b.Fatal(err)
			}
			cfg := ilp.DefaultConfig
			cfg.MispredictPenalty = penalty
			for i := 0; i < b.N; i++ {
				base, err := ilp.New(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := ctx.RunEvalPlain("vortex", base); err != nil {
					b.Fatal(err)
				}
				table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
				if err != nil {
					b.Fatal(err)
				}
				vp, err := ilp.New(cfg, vpsim.NewProfileEngine(table))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := workload.Run(prog, vp); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(vp.Result().SpeedupOver(base.Result()), "ilp-gain-%")
			}
		})
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

// BenchmarkVMExecution measures raw functional-simulation speed
// (instructions per second appear as the inverse of ns/op × count).
func BenchmarkVMExecution(b *testing.B) {
	prog, err := workload.Build("compress", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		n, err := workload.Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "instructions/op")
}

// BenchmarkPredictionEngine measures the per-instruction cost of the
// finite-table prediction engine.
func BenchmarkPredictionEngine(b *testing.B) {
	pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
	if err != nil {
		b.Fatal(err)
	}
	table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
	if err != nil {
		b.Fatal(err)
	}
	engine := vpsim.NewFSMEngine(table, pol)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Observe(int64(i%2048), 0, int64(i))
	}
}

// BenchmarkILPMachine measures the per-instruction cost of the dataflow
// scheduler with value prediction active: an FSM engine over the paper's
// 512-entry stride table, fed live by the VM.
func BenchmarkILPMachine(b *testing.B) {
	prog, err := workload.Build("li", workload.EvaluationInput())
	if err != nil {
		b.Fatal(err)
	}
	pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := predictor.NewTable(predictor.Stride, predictor.DefaultTableConfig)
		if err != nil {
			b.Fatal(err)
		}
		m, err := ilp.New(ilp.DefaultConfig, vpsim.NewFSMEngine(table, pol))
		if err != nil {
			b.Fatal(err)
		}
		n, err := workload.Run(prog, m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "instructions/op")
		b.ReportMetric(m.Result().ILP(), "ilp")
	}
}
