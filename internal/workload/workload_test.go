package workload

import (
	"sync"
	"testing"

	"repro/internal/profiler"
	"repro/internal/program"
	"repro/internal/trace"
)

// TestAllBenchmarksRun executes every benchmark at scale 1 and checks the
// basic health properties the experiments rely on: the program assembles,
// halts within budget, executes a substantial number of instructions, and
// produces a meaningful population of value-producing instructions.
func TestAllBenchmarksRun(t *testing.T) {
	for _, name := range AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var cnt trace.Counter
			col := profiler.NewCollector()
			n, err := BuildAndRun(name, Input{Seed: 1}, &cnt, col)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if n < 50_000 {
				t.Errorf("only %d dynamic instructions; workloads should be substantial", n)
			}
			if n > 5_000_000 {
				t.Errorf("%d dynamic instructions; workload too heavy for the experiment suite", n)
			}
			if cnt.ValueProds < n/5 {
				t.Errorf("only %d/%d instructions produce values", cnt.ValueProds, n)
			}
			if col.NumInstructions() < 10 {
				t.Errorf("only %d static value-producing instructions profiled", col.NumInstructions())
			}
			t.Logf("%s: %d dynamic instructions, %d static value producers",
				name, n, col.NumInstructions())
		})
	}
}

// TestDifferentSeedsDifferentData checks that distinct inputs genuinely
// produce different program data (different execution), not just a reused
// image — otherwise the Section 4 input-stability study would be vacuous.
func TestDifferentSeedsDifferentData(t *testing.T) {
	for _, name := range AllNames() {
		p1, err := Build(name, Input{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p2, err := Build(name, Input{Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p1.Data) != len(p2.Data) {
			continue // differing layout is certainly different data
		}
		same := true
		for i := range p1.Data {
			if p1.Data[i] != p2.Data[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 produced identical data segments", name)
		}
	}
}

// TestBuildCacheReturnsSameImage verifies the memoization contract.
func TestBuildCacheReturnsSameImage(t *testing.T) {
	a, err := Build("compress", Input{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("compress", Input{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Build did not return the cached image for identical inputs")
	}
	c, err := Build("compress", Input{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("Build returned the same image for different seeds")
	}
}

// TestUnknownBenchmark checks the error path.
func TestUnknownBenchmark(t *testing.T) {
	if _, err := Build("nonesuch", Input{}); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestNamesOrder checks the paper-order listing and primary/secondary split.
func TestNamesOrder(t *testing.T) {
	want := []string{"go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex", "mgrid"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if len(AllNames()) != len(want)+4 {
		t.Fatalf("AllNames() = %v, want 4 secondary FP benchmarks appended", AllNames())
	}
}

// TestFPWorkloadsUsePhases verifies the FP benchmarks mark an initialization
// and a computation phase (Table 2.1 reports them separately).
func TestFPWorkloadsUsePhases(t *testing.T) {
	for _, name := range AllNames() {
		spec, _ := ByName(name)
		phases := map[int]bool{}
		_, err := BuildAndRun(name, Input{Seed: 3}, trace.ConsumerFunc(func(r *trace.Record) {
			if r.HasDest {
				phases[r.Phase] = true
			}
		}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if spec.FP && (!phases[0] || !phases[1]) {
			t.Errorf("%s: FP benchmark should produce values in phases 0 and 1, got %v", name, phases)
		}
		if !spec.FP && phases[1] {
			t.Errorf("%s: integer benchmark unexpectedly uses phase 1", name)
		}
	}
}

// TestImageCacheBounded builds far more fresh images than the cache holds:
// the cache must stay at its cap, and an evicted key must rebuild to an
// image with the same content fingerprint.
func TestImageCacheBounded(t *testing.T) {
	first := Input{Seed: 0xCAC4E_0000}
	p0, err := Build("m88ksim", first)
	if err != nil {
		t.Fatal(err)
	}
	fp0, err := FingerprintOf(p0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 1000; i++ {
		p, err := Build("m88ksim", Input{Seed: first.Seed + i})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FingerprintOf(p); err != nil {
			t.Fatal(err)
		}
		if n := images.len(); n > imageCacheCap {
			t.Fatalf("after %d fresh builds the image cache holds %d entries, cap %d", i, n, imageCacheCap)
		}
	}
	if n := images.len(); n != imageCacheCap {
		t.Errorf("image cache holds %d entries after 1000 fresh builds, want its cap %d", n, imageCacheCap)
	}
	p1, err := Build("m88ksim", first)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p0 {
		t.Fatal("evicted image was not rebuilt")
	}
	fp1, err := FingerprintOf(p1)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp0 {
		t.Errorf("rebuilt image fingerprint %s, want %s", fp1, fp0)
	}
}

// TestImageCacheConcurrent builds and fingerprints overlapping keys from
// several goroutines: every caller must get the one cached image per key
// and agree on its fingerprint.
func TestImageCacheConcurrent(t *testing.T) {
	const goroutines, keys = 8, 16
	progs := make([][keys]*program.Program, goroutines)
	fps := make([][keys]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				p, err := Build("m88ksim", Input{Seed: 0xC0C0_0000 + uint64(k)})
				if err != nil {
					t.Error(err)
					return
				}
				fp, err := FingerprintOf(p)
				if err != nil {
					t.Error(err)
					return
				}
				progs[g][k], fps[g][k] = p, fp
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if progs[g] != progs[0] || fps[g] != fps[0] {
			t.Fatalf("goroutine %d saw different images or fingerprints than goroutine 0", g)
		}
	}
}
