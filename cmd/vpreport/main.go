// Command vpreport regenerates the paper's tables and figures from the
// synthetic benchmark suite.
//
// Usage:
//
//	vpreport [-experiment id] [-n inputs] [-thresholds list] [-parallel N]
//
// With -experiment all (the default), every artifact in the registry is
// regenerated in paper order. Independent artifacts run concurrently on up
// to -parallel workers (default: the number of CPUs); the rendered output
// is bit-identical for any worker count, and -parallel 1 preserves the
// strictly sequential behavior.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/workload"
)

// version is stamped by release builds via -ldflags "-X main.version=...".
var version = "dev"

func main() {
	var (
		exp    = flag.String("experiment", "all", "experiment id (e.g. table2.1, fig4.1, table5.2) or 'all'")
		n      = flag.Int("n", experiments.DefaultTrainInputs, "number of training inputs for profiling")
		thresh = flag.String("thresholds", "90,80,70,60,50", "comma-separated accuracy thresholds (percent)")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		exts   = flag.Bool("extensions", false, "also run the extension experiments with -experiment all")
		outDir = flag.String("o", "", "also write each artifact to <dir>/<id>.txt")
		par    = flag.Int("parallel", parallel.DefaultLimit(), "max concurrent artifacts and per-artifact workers (1 = sequential)")

		serverURL = flag.String("server", "", "offload threshold sweeps to a vpserve node or vpcoord cluster at this base URL instead of computing locally")
		remoteILP = flag.Bool("remote-ilp", true, "include the ILP speedup leg in remote sweeps (with -server)")

		traceMem = flag.Int64("trace-mem-budget", 0, "resident bytes budget per recorded trace before chunks spill to disk (0 = unlimited)")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.Format("vpreport", version))
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(fmt.Errorf("memprofile: %w", err))
		}
		defer func() {
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vpreport: memprofile:", err)
			}
			f.Close()
		}()
	}

	if *list {
		for _, r := range experiments.Registry {
			fmt.Printf("%-13s %s\n", r.ID, r.Title)
		}
		for _, r := range experiments.ExtRegistry {
			fmt.Printf("%-13s %s\n", r.ID, r.Title)
		}
		return
	}

	if *par < 1 {
		fatal(fmt.Errorf("-parallel must be ≥ 1 (got %d)", *par))
	}
	ctx := experiments.NewContext()
	ctx.NumTrainInputs = *n
	ctx.Workers = *par
	ctx.TraceMemBudget = *traceMem
	ths, err := parseThresholds(*thresh)
	if err != nil {
		fatal(err)
	}
	ctx.Thresholds = ths

	if *serverURL != "" {
		if err := runRemote(*serverURL, ths, *remoteILP, *outDir, flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	runners := experiments.Registry
	if *exts {
		runners = append(append([]experiments.Runner{}, runners...), experiments.ExtRegistry...)
	}
	if *exp != "all" {
		r, err := experiments.ByID(*exp)
		if err != nil {
			fatal(err)
		}
		runners = []experiments.Runner{r}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	// Regenerate the artifacts — concurrently when -parallel allows — and
	// print them in registry order. Each artifact's duration is measured
	// inside its worker, so concurrent artifacts report their own
	// wall-clock rather than an interleaved loop time.
	total := time.Now()
	outcomes := experiments.RunAll(ctx, runners, *par)
	elapsed := time.Since(total)
	for _, o := range outcomes {
		if o.Err != nil {
			fatal(fmt.Errorf("%s: %w", o.Runner.ID, o.Err))
		}
		text := o.Result.Render()
		fmt.Println(text)
		fmt.Printf("[%s regenerated in %v]\n\n", o.Runner.ID, o.Duration.Round(time.Millisecond))
		if *outDir != "" {
			name := strings.NewReplacer(":", "_", "+", "_").Replace(o.Runner.ID) + ".txt"
			if err := os.WriteFile(filepath.Join(*outDir, name), []byte(text+"\n"), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	if len(outcomes) > 1 {
		printSummary(outcomes, elapsed, *par)
	}
}

// runRemote renders one sweep table per benchmark, computed by the service
// at baseURL — a single vpserve node, or a vpcoord cluster that shards each
// sweep across its worker fleet. Identical requests produce byte-identical
// report.Runs on either, so artifacts are comparable across topologies.
func runRemote(baseURL string, ths []float64, ilp bool, outDir string, benches []string) error {
	if len(benches) == 0 {
		benches = workload.AllNames()
	}
	cli := client.New(client.Config{BaseURL: baseURL})
	total := time.Now()
	for _, b := range benches {
		t0 := time.Now()
		run, err := experiments.RemoteSweep(context.Background(), cli, b, ths, ilp)
		if err != nil {
			return err
		}
		text := experiments.RenderRemoteSweep(b, run)
		fmt.Println(text)
		fmt.Printf("[%s swept remotely in %v]\n\n", b, time.Since(t0).Round(time.Millisecond))
		if outDir != "" {
			if err := os.WriteFile(filepath.Join(outDir, "remote-"+b+".txt"), []byte(text+"\n"), 0o644); err != nil {
				return err
			}
		}
	}
	fmt.Printf("[%d remote sweeps in %v via %s]\n", len(benches), time.Since(total).Round(time.Millisecond), baseURL)
	return nil
}

// printSummary renders the per-artifact wall-clock table. The per-artifact
// durations overlap under -parallel > 1, so their sum exceeds the total
// wall-clock — that gap is the win the summary makes visible.
func printSummary(outcomes []experiments.Outcome, elapsed time.Duration, par int) {
	tb := stats.NewTable(fmt.Sprintf("Wall-clock summary (-parallel %d)", par), "artifact", "duration")
	var sum time.Duration
	for _, o := range outcomes {
		tb.AddRow(o.Runner.ID, o.Duration.Round(time.Millisecond).String())
		sum += o.Duration
	}
	tb.AddRow("sum of artifacts", sum.Round(time.Millisecond).String())
	tb.AddRow("total wall-clock", elapsed.Round(time.Millisecond).String())
	fmt.Println(tb.Render())
}

func parseThresholds(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil || v < 0 || v > 100 {
			return nil, fmt.Errorf("bad threshold %q (want percent in [0,100])", tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no thresholds given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpreport:", err)
	os.Exit(1)
}
