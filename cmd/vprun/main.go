// Command vprun executes a program image or a named synthetic benchmark
// under the functional simulator and reports execution and value-prediction
// statistics. It is the quickest way to see a predictor/classifier
// configuration act on a real instruction stream.
//
// Usage:
//
//	vprun -bench gcc -seed 7
//	vprun prog.vpimg
//	vprun -bench vortex -predictor stride -entries 512 -assoc 2 -classifier fsm
//	vprun -bench vortex -classifier profile      # uses the image's directives
//	vprun -bench m88ksim -trace out.vptrc        # dump the trace to a file
//	vprun -bench gcc -json                       # machine-readable stats
//
// -json emits the same report.Run schema the vpserve HTTP API returns, so
// scripted consumers see one format whether they shell out or talk to the
// daemon.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/classify"
	"repro/internal/client"
	"repro/internal/predictor"
	"repro/internal/program"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/vpsim"
	"repro/internal/workload"
)

// version is stamped by release builds via -ldflags "-X main.version=...".
var version = "dev"

func main() {
	var (
		bench      = flag.String("bench", "", "run a named synthetic benchmark instead of an image file")
		seed       = flag.Uint64("seed", 1, "benchmark input seed")
		scale      = flag.Int("scale", 1, "benchmark input scale")
		predKind   = flag.String("predictor", "stride", "predictor: stride or lastvalue")
		entries    = flag.Int("entries", 512, "prediction-table entries (0 = infinite)")
		assoc      = flag.Int("assoc", 2, "prediction-table associativity")
		classifier = flag.String("classifier", "fsm", "classifier: fsm or profile")
		tracePath  = flag.String("trace", "", "write the dynamic trace to this file")
		list       = flag.Bool("list", false, "list benchmarks and exit")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON (the vpserve report.Run schema)")
		serverURL  = flag.String("server", "", "evaluate on a vpserve node or vpcoord cluster at this base URL instead of locally (requires -bench)")
		threshold  = flag.Float64("threshold", 0, "accuracy threshold for profile-classified remote runs (with -server)")
		ilp        = flag.Bool("ilp", false, "time the remote run through the ILP machine (with -server)")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.Format("vprun", version))
		return
	}

	if *list {
		for _, n := range workload.AllNames() {
			s, _ := workload.ByName(n)
			kind := "integer"
			if s.FP {
				kind = "floating-point"
			}
			fmt.Printf("%-9s %s\n", n, kind)
		}
		return
	}

	if *serverURL != "" {
		if *bench == "" {
			fatal(fmt.Errorf("-server requires -bench (the node builds the workload itself)"))
		}
		runRemote(*serverURL, server.EvaluateRequest{
			Bench: *bench, Seed: *seed, Scale: *scale,
			Predictor: *predKind, Entries: entries, Assoc: *assoc,
			Classifier: *classifier, Threshold: *threshold, ILP: *ilp,
		}, *jsonOut)
		return
	}

	var p *program.Program
	var err error
	switch {
	case *bench != "":
		p, err = workload.Build(*bench, workload.Input{Seed: *seed, Scale: *scale})
	case flag.NArg() == 1:
		p, err = program.Load(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: vprun [-bench name | image.vpimg] [flags]")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	kind := predictor.Stride
	if *predKind == "lastvalue" {
		kind = predictor.LastValue
	} else if *predKind != "stride" {
		fatal(fmt.Errorf("unknown predictor %q", *predKind))
	}
	var store predictor.Store
	if *entries == 0 {
		store = predictor.NewInfinite(kind)
	} else {
		t, err := predictor.NewTable(kind, predictor.TableConfig{Entries: *entries, Assoc: *assoc})
		if err != nil {
			fatal(err)
		}
		store = t
	}

	var engine *vpsim.Engine
	switch *classifier {
	case "fsm":
		pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
		if err != nil {
			fatal(err)
		}
		engine = vpsim.NewFSMEngine(store, pol)
	case "profile":
		engine = vpsim.NewProfileEngine(store)
	default:
		fatal(fmt.Errorf("unknown classifier %q", *classifier))
	}

	consumers := []trace.Consumer{engine}
	var tw *trace.FileWriter
	if *tracePath != "" {
		// Atomic publication: the trace streams into a temp file and only a
		// successful Close renames it to -trace, so an interrupted run never
		// leaves a torn trace file behind.
		var err error
		tw, err = trace.CreateFile(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer tw.Abort()
		consumers = append(consumers, tw)
	}

	n, err := workload.Run(p, consumers...)
	if err != nil {
		fatal(err)
	}
	st := engine.Stats()
	if *jsonOut {
		fp, err := workload.Fingerprint(p)
		if err != nil {
			fatal(err)
		}
		out := &report.Run{
			Program:      p.Name,
			Fingerprint:  fp,
			Instructions: n,
			Classifier:   *classifier,
			Predictor:    report.Predictor{Kind: *predKind, Entries: *entries, Assoc: *assoc},
		}
		if *bench != "" {
			out.Input = workload.Input{Seed: *seed, Scale: *scale}.String()
		}
		out.SetStats(st)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
		if tw != nil {
			if err := tw.Close(); err != nil {
				fatal(err)
			}
		}
		return
	}
	fmt.Printf("program:            %s\n", p.Name)
	fmt.Printf("instructions:       %d\n", n)
	fmt.Printf("value instructions: %d\n", st.ValueInstructions)
	fmt.Printf("classifier:         %s\n", engine.PolicyName())
	fmt.Printf("predictor:          %s, %s\n", kind, tableDesc(*entries, *assoc))
	fmt.Printf("candidates:         %d\n", st.Candidates)
	fmt.Printf("table misses:       %d\n", st.Misses)
	fmt.Printf("predictions taken:  %d (%.1f%% correct)\n",
		st.UsedCorrect+st.UsedIncorrect, st.PredictionAccuracy())
	fmt.Printf("  correct:          %d\n", st.UsedCorrect)
	fmt.Printf("  incorrect:        %d\n", st.UsedIncorrect)
	fmt.Printf("withheld correct:   %d\n", st.UnusedCorrect)
	fmt.Printf("filtered mispred:   %d\n", st.UnusedIncorrect)
	if tw != nil {
		if err := tw.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:              %d records → %s\n", tw.Count(), *tracePath)
	}
}

// runRemote evaluates the request on a vpserve node or vpcoord cluster and
// prints the server's report — the same JSON schema -json emits locally.
func runRemote(baseURL string, req server.EvaluateRequest, jsonOut bool) {
	cli := client.New(client.Config{BaseURL: baseURL})
	res, err := cli.Evaluate(context.Background(), req)
	if err != nil {
		fatal(err)
	}
	run := res.Result
	if run == nil {
		fatal(fmt.Errorf("server returned no result (job %s, status %s)", res.ID, res.Status))
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(run); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("server:             %s (job %s, cache %v)\n", baseURL, res.ID, res.CacheHit)
	fmt.Printf("program:            %s\n", run.Program)
	fmt.Printf("instructions:       %d\n", run.Instructions)
	fmt.Printf("value instructions: %d\n", run.ValueInstructions)
	fmt.Printf("classifier:         %s\n", run.Classifier)
	fmt.Printf("predictor:          %s, %s\n", run.Predictor.Kind, tableDesc(run.Predictor.Entries, run.Predictor.Assoc))
	fmt.Printf("candidates:         %d\n", run.Candidates)
	fmt.Printf("predictions taken:  %d (%.1f%% correct)\n",
		run.UsedCorrect+run.UsedIncorrect, run.PredictionAccuracy)
	if run.ILP != nil {
		fmt.Printf("ilp speedup:        %.1f%%\n", run.ILP.SpeedupPct)
	}
}

func tableDesc(entries, assoc int) string {
	if entries == 0 {
		return "infinite table"
	}
	return fmt.Sprintf("%d entries %d-way", entries, assoc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vprun:", err)
	os.Exit(1)
}
