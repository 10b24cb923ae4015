package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// The committed-output oracle: every paper and extension artifact, rendered
// from a fresh Context at the default settings, must equal its committed
// docs/results file byte for byte under each configuration below — one
// sequential, one at the default worker count, and one at the default
// worker count with every evaluation-trace chunk spilled to disk. Together
// with live re-execution (replay_test.go) it is the project's test oracle.
var registryConfigs = []struct {
	name    string
	workers int   // Context.Workers and RunAll width; 0 = the default
	budget  int64 // Context.TraceMemBudget
}{
	{"sequential", 1, 0},
	{"parallel", 0, 0},
	{"spilled", 0, 1},
}

// registryRender is one configuration's rendering of the full registry,
// computed once per test binary and shared by the tests that read it.
type registryRender struct {
	once    sync.Once
	outs    []Outcome
	spilled int64 // evaluation-trace chunks spilled across all benchmarks
}

var registryRenders [3]registryRender

// renderRegistry renders the full registry under registryConfigs[i].
func renderRegistry(t *testing.T, i int) *registryRender {
	t.Helper()
	if testing.Short() {
		t.Skip("renders the full registry")
	}
	r := &registryRenders[i]
	r.once.Do(func() {
		cfg := registryConfigs[i]
		c := NewContext()
		c.Workers = cfg.workers
		c.TraceMemBudget = cfg.budget
		runners := append(append([]Runner{}, Registry...), ExtRegistry...)
		r.outs = RunAll(c, runners, cfg.workers)
		for _, bench := range workload.AllNames() {
			if rec, err := c.EvalTrace(bench); err == nil {
				r.spilled += rec.SpilledChunks()
				rec.Close()
			}
		}
	})
	return r
}

// committedResult reads the docs/results file of an artifact, named as
// vpreport -o names it.
func committedResult(t *testing.T, id string) string {
	t.Helper()
	name := strings.NewReplacer(":", "_", "+", "_").Replace(id) + ".txt"
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRegistryMatchesCommittedResults byte-diffs every artifact against
// docs/results under each registry configuration.
func TestRegistryMatchesCommittedResults(t *testing.T) {
	for i, cfg := range registryConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			r := renderRegistry(t, i)
			if cfg.budget > 0 && r.spilled == 0 {
				t.Fatal("budgeted run spilled nothing — spill path not exercised")
			}
			for _, o := range r.outs {
				if o.Err != nil {
					t.Errorf("%s: %v", o.Runner.ID, o.Err)
					continue
				}
				got, want := o.Result.Render()+"\n", committedResult(t, o.Runner.ID)
				if got != want {
					t.Errorf("%s differs from docs/results:\n%s", o.Runner.ID, firstDiff(want, got))
				}
			}
		})
	}
}

// firstDiff reports the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n--- committed ---\n%s\n--- rendered ---\n%s", i+1, wl, gl)
		}
	}
	return "(no differing line)"
}
