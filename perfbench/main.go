// Command perfbench is the repository benchmark. It drives the profiling
// pipeline in-process through its packages (experiments, server, cluster),
// generates closed-loop load from this one process, checks every output,
// and prints one JSON result line last. README.md describes the workloads,
// the metrics and the layer each per-layer metric belongs to.
//
//	perfbench --workload serve-sweep --seed 7 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its workload environment.
// setup_s is the median, so one slow first set-up (cold program cache,
// cold page cache) does not decide the figure; only the last environment
// is measured.
const setupRepeats = 3

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the harness prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is what one measurement window observed.
type sample struct {
	lat     []time.Duration // per-operation latency, client side
	rounds  []time.Duration // wall time of each round of the workload
	ops     int64           // operations attempted
	failed  int64           // failed, non-200 or wrong-output operations
	elapsed time.Duration   // window start to last completion
	layers  map[string]metric
}

// env is one set-up workload, ready to measure.
type env interface {
	// measure runs the closed loop for d. With tr non-nil it also records
	// spans and fills sample.layers.
	measure(d time.Duration, tr *tracer) (*sample, error)
	close()
}

// workloadDef names a workload, the latency percentile its tail metric
// reports, its most closed-loop clients and how to set it up.
type workloadDef struct {
	name       string
	tailPct    float64
	maxClients int
	setup      func(seed uint64) (env, error)
}

// The sweeps run one client. A recording already keeps a second CPU busy
// with its encode-ahead pipeline, and a cluster-sweep request already splits
// into one shard per node, so a second client would oversubscribe two CPUs
// and the figures would follow the scheduler more than the program.
// serve-sweep thus stays the one-node baseline for cluster-sweep at the
// same offered load.
var workloads = []workloadDef{
	{"paper-registry", 80, 2, setupRegistry},
	{"serve-hot", 99, 2, setupServeHot},
	{"serve-sweep", 90, 1, func(seed uint64) (env, error) { return setupSweep(seed, 1) }},
	{"cluster-sweep", 90, 1, func(seed uint64) (env, error) { return setupSweep(seed, 2) }},
}

// maxClients is the selected workload's client limit.
var maxClients = 2

// clients is the closed-loop client count: one per CPU up to the
// workload's limit, one connection each.
func clients() int { return min(runtime.NumCPU(), maxClients) }

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 25, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *name)
		os.Exit(2)
	}
	maxClients = def.maxClients
	res, err := run(def, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(def *workloadDef, seed uint64, window time.Duration, trace bool) (*result, error) {
	var (
		setups []time.Duration
		e      env
	)
	for i := 0; i < setupRepeats; i++ {
		// Start each set-up alone and from a collected heap, so neither the
		// previous environment nor a collection it left pending is charged
		// to it.
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = def.setup(seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer e.close()
	fmt.Printf("workload %s seed %d clients %d setups %v\n", def.name, seed, clients(), setups)

	res := &result{Metrics: map[string]metric{}}
	if !trace {
		s, err := e.measure(window, nil)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = s.ops, s.failed
		endToEnd(res, def, s, setups)
	} else {
		// Split the window: the untraced half is the reference the traced
		// half's overhead is reported against.
		plain, err := e.measure(window/2, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		s, err := e.measure(window/2, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = plain.ops+s.ops, plain.failed+s.failed
		if err := tr.probes(res.Metrics); err != nil {
			return nil, err
		}
		for k, v := range s.layers {
			res.Metrics[k] = v
		}
		res.Metrics["trace_overhead.wall_s"] = metric{median(s.rounds).Seconds() - median(plain.rounds).Seconds(), "s"}
		res.Metrics["trace_overhead.latency_p50_ms"] = metric{ms(percentile(s.lat, 50)) - ms(percentile(plain.lat, 50)), "ms"}
		for k, unit := range layerMetrics() {
			if _, ok := res.Metrics[k]; !ok {
				res.Metrics[k] = metric{0, unit}
			}
		}
		if err := tr.dump(def.name, seed); err != nil {
			return nil, err
		}
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("  %-36s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
		}
	}
	res.Correct = res.Failed == 0
	fmt.Printf("correct %v: %d of %d operations failed (fail_frac %.4f)\n",
		res.Correct, res.Failed, res.Attempted, float64(res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}

// endToEnd fills the end-to-end metrics from an untraced window and prints
// each with its unit and sample count.
func endToEnd(res *result, def *workloadDef, s *sample, setups []time.Duration) {
	tail := fmt.Sprintf("p%g", def.tailPct)
	res.Metrics["setup_s"] = metric{median(setups).Seconds(), "s"}
	res.Metrics["wall_s"] = metric{median(s.rounds).Seconds(), "s"}
	res.Metrics["req_per_s"] = metric{float64(len(s.lat)) / s.elapsed.Seconds(), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{ms(percentile(s.lat, 50)), "ms"}
	res.Metrics["latency_tail_ms"] = metric{ms(percentile(s.lat, def.tailPct)), "ms"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	beyond := len(s.lat) - int(math.Ceil(def.tailPct/100*float64(len(s.lat))))
	fmt.Printf("  setup_s         %10.4f s   median of %d set-ups\n", res.Metrics["setup_s"].Value, len(setups))
	fmt.Printf("  wall_s          %10.4f s   median of %d rounds, min %.4f, max %.4f\n", res.Metrics["wall_s"].Value,
		len(s.rounds), percentile(s.rounds, 0).Seconds(), percentile(s.rounds, 100).Seconds())
	fmt.Printf("  req_per_s       %10.4f 1/s %d operations in %v\n", res.Metrics["req_per_s"].Value, len(s.lat), s.elapsed.Round(time.Millisecond))
	fmt.Printf("  latency_p50_ms  %10.4f ms  n=%d\n", res.Metrics["latency_p50_ms"].Value, len(s.lat))
	fmt.Printf("  latency_tail_ms %10.4f ms  %s, n=%d, %d samples beyond\n", res.Metrics["latency_tail_ms"].Value, tail, len(s.lat), beyond)
	fmt.Printf("  peak_rss_mb     %10.4f MB  process high-water mark\n", res.Metrics["peak_rss_mb"].Value)
}

// percentile returns the nearest-rank p-th percentile (0 for no samples).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
