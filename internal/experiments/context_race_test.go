package experiments

import (
	"sync"
	"testing"

	"repro/internal/profiler"
	"repro/internal/vpsim"

	"repro/internal/classify"
	"repro/internal/predictor"
)

// TestContextConcurrentStress drives every memoized Context path from many
// goroutines at once. Run under -race (CI does) it proves the concurrency
// contract the serving layer depends on: single-flight memoization publishes
// immutable values, and replayed trace records — handed to consumers by
// pointer into the shared recorded buffer — are never written by any
// consumer in the repository. A violation of either shows up as a race
// report or a sealed-recorder panic, not silent corruption.
func TestContextConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	c := NewContext()
	c.NumTrainInputs = 2
	const (
		bench   = "compress"
		readers = 8
		rounds  = 3
	)
	// The extensions that read VP+Prof(90%) from the memoized paper pass
	// and run machines of their own on the shared trace; each goroutine's
	// render of a driver must equal every other's.
	drivers := []func(*Context) (Result, error){wrap(RunExtBranch), wrap(RunExtSched), wrap(RunExtHybrid)}
	var renders sync.Map
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch (g + r) % 5 {
				case 0:
					// Plain replay into a fresh prediction engine.
					pol, err := classify.NewFSMPolicy(classify.DefaultSatCounter)
					if err != nil {
						t.Error(err)
						return
					}
					eng := vpsim.NewFSMEngine(predictor.NewInfinite(predictor.Stride), pol)
					if err := c.RunEvalPlain(bench, eng); err != nil {
						t.Error(err)
						return
					}
					if eng.Stats().ValueInstructions == 0 {
						t.Error("plain replay produced no value instructions")
						return
					}
				case 1:
					// Directive-patched replay at a threshold that
					// varies per goroutine, so annotation cells are
					// both shared and distinct across readers.
					th := DefaultThresholds[g%len(DefaultThresholds)]
					eng := vpsim.NewProfileEngine(predictor.NewInfinite(predictor.Stride))
					if err := c.RunEvalAnnotated(bench, th, eng); err != nil {
						t.Error(err)
						return
					}
				case 2:
					// Profile the replayed stream.
					col, err := c.EvalCollector(bench)
					if err != nil {
						t.Error(err)
						return
					}
					if col.NumInstructions() == 0 {
						t.Error("evaluation collector empty")
						return
					}
				case 3:
					d := g % len(drivers)
					res, err := drivers[d](c)
					if err != nil {
						t.Error(err)
						return
					}
					if prev, loaded := renders.LoadOrStore(d, res.Render()); loaded && prev != res.Render() {
						t.Errorf("%s: concurrent renders differ", res.ID())
					}
				default:
					// Training profiles + merged image.
					if _, err := c.MergedTrainImage(bench); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Single-flight must have produced exactly one recorder for the bench;
	// every goroutine above shared it.
	rec, err := c.EvalTrace(bench)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Sealed() {
		t.Error("cached evaluation trace is not sealed")
	}
	rec2, err := c.EvalTrace(bench)
	if err != nil {
		t.Fatal(err)
	}
	if rec != rec2 {
		t.Error("EvalTrace returned distinct recorders for the same bench")
	}
}

// TestContextSingleFlight proves concurrent first requests for the same key
// collapse into one computation rather than racing to duplicate it.
func TestContextSingleFlight(t *testing.T) {
	c := NewContext()
	var calls int
	var mu sync.Mutex
	// Hijack memoize directly with a counting compute function.
	m := make(map[string]*cell[*profiler.Collector])
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, _ = memoize(&c.mu, m, "k", func() (*profiler.Collector, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return profiler.NewCollector(), nil
			})
		}()
	}
	close(start)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("compute ran %d times for one key, want 1", calls)
	}
}
