package repro

// End-to-end tests of the command-line tool chain: build the real binaries
// and drive the paper's three-phase flow (vpasm → vpprof → vpannotate →
// vprun / vptrace) through files, exactly as a user would.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles every cmd/ binary once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration tests skipped in -short mode")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func runExpectError(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", filepath.Base(bin), args, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	bin := buildTools(t)
	work := t.TempDir()
	join := func(name string) string { return filepath.Join(work, name) }

	// Phase 1: assemble a source file.
	src := join("vecsum.s")
	if err := os.WriteFile(src, []byte(`
main:
	ldi r1, 0
	ldi r2, 200
loop:
	ld r3, data(r1)
	add r4, r4, r3
	addi r1, r1, 1
	blt r1, r2, loop
	st r4, out(zero)
	halt
.data
data:	.space 200
out:	.word 0
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, filepath.Join(bin, "vpasm"), "-o", join("vecsum.vpimg"), src)
	if !strings.Contains(out, "8 instructions") {
		t.Errorf("vpasm output: %s", out)
	}

	// Disassembly round-trip.
	dump := run(t, filepath.Join(bin, "vpasm"), "-dump", join("vecsum.vpimg"))
	if !strings.Contains(dump, "addi r1, r1, 1") {
		t.Errorf("vpasm -dump missing instruction:\n%s", dump)
	}

	// Phase 2: profile the image.
	out = run(t, filepath.Join(bin, "vpprof"), "-o", join("vecsum.prof"), join("vecsum.vpimg"))
	if !strings.Contains(out, "profiled") {
		t.Errorf("vpprof output: %s", out)
	}

	// Phase 3: annotate at 90%.
	out = run(t, filepath.Join(bin, "vpannotate"),
		"-prog", join("vecsum.vpimg"), "-prof", join("vecsum.prof"),
		"-threshold", "90", "-o", join("vecsum.ann.vpimg"))
	if !strings.Contains(out, "tagged stride:         1") {
		t.Errorf("vpannotate should tag exactly the index increment:\n%s", out)
	}

	// Evaluate the annotated image under profile classification.
	out = run(t, filepath.Join(bin, "vprun"), "-classifier", "profile", join("vecsum.ann.vpimg"))
	if !strings.Contains(out, "profile-directives") {
		t.Errorf("vprun output: %s", out)
	}

	// Trace to a file and analyze offline.
	run(t, filepath.Join(bin, "vprun"), "-trace", join("vecsum.vptrc"), join("vecsum.vpimg"))
	out = run(t, filepath.Join(bin, "vptrace"), "-stats", join("vecsum.vptrc"))
	if !strings.Contains(out, "records:") || !strings.Contains(out, "VPTRC03") || !strings.Contains(out, "on-disk bytes/rec:") {
		t.Errorf("vptrace -stats output: %s", out)
	}
	out = run(t, filepath.Join(bin, "vptrace"), "-critpath", join("vecsum.vptrc"))
	if !strings.Contains(out, "critical path:") {
		t.Errorf("vptrace -critpath output: %s", out)
	}
	// Offline profile must match the online one structurally.
	run(t, filepath.Join(bin, "vptrace"), "-profile", join("offline.prof"), join("vecsum.vptrc"))
	online, err := os.ReadFile(join("vecsum.prof"))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := os.ReadFile(join("offline.prof"))
	if err != nil {
		t.Fatal(err)
	}
	// Same per-instruction counts (headers differ: program name/input).
	tail := func(b []byte) string {
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var data []string
		for _, l := range lines {
			if !strings.HasPrefix(l, "#") && !strings.HasPrefix(l, "program") && !strings.HasPrefix(l, "input") {
				data = append(data, l)
			}
		}
		return strings.Join(data, "\n")
	}
	if tail(online) != tail(offline) {
		t.Errorf("online and offline profiles differ:\n--- online\n%s\n--- offline\n%s",
			tail(online), tail(offline))
	}
}

func TestCLIBenchmarkMode(t *testing.T) {
	bin := buildTools(t)
	work := t.TempDir()

	out := run(t, filepath.Join(bin, "vprun"), "-list")
	for _, name := range []string{"go", "m88ksim", "mgrid", "tomcatv"} {
		if !strings.Contains(out, name) {
			t.Errorf("vprun -list missing %s:\n%s", name, out)
		}
	}

	prof := filepath.Join(work, "compress.prof")
	run(t, filepath.Join(bin, "vpprof"), "-bench", "compress", "-n", "2", "-o", prof)
	ann := filepath.Join(work, "compress.ann.vpimg")
	out = run(t, filepath.Join(bin, "vpannotate"),
		"-bench", "compress", "-prof", prof, "-threshold", "90", "-o", ann)
	if !strings.Contains(out, "profiled instructions:") {
		t.Errorf("vpannotate output: %s", out)
	}
	out = run(t, filepath.Join(bin, "vprun"), "-classifier", "profile", ann)
	if !strings.Contains(out, "compress") {
		t.Errorf("vprun output: %s", out)
	}
}

func TestCLIJSONOutput(t *testing.T) {
	// vprun -json must emit the report.Run schema the vpserve API shares.
	bin := buildTools(t)
	out := run(t, filepath.Join(bin, "vprun"), "-bench", "compress", "-json")
	var got struct {
		Program      string `json:"program"`
		Fingerprint  string `json:"fingerprint"`
		Input        string `json:"input"`
		Instructions int64  `json:"instructions"`
		Classifier   string `json:"classifier"`
		Predictor    struct {
			Kind    string `json:"kind"`
			Entries int    `json:"entries"`
		} `json:"predictor"`
		ValueInstructions int64   `json:"value_instructions"`
		Accuracy          float64 `json:"prediction_accuracy_pct"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("vprun -json output not valid JSON: %v\n%s", err, out)
	}
	if got.Program != "compress" || got.Fingerprint == "" || got.Input != "seed=1,scale=1" {
		t.Errorf("identity fields: %+v", got)
	}
	if got.Instructions == 0 || got.ValueInstructions == 0 {
		t.Errorf("empty counters: %+v", got)
	}
	if got.Classifier != "fsm" || got.Predictor.Kind != "stride" || got.Predictor.Entries != 512 {
		t.Errorf("config fields: %+v", got)
	}
	if got.Accuracy <= 0 || got.Accuracy > 100 {
		t.Errorf("prediction accuracy %v outside (0,100]", got.Accuracy)
	}
}

func TestCLIReportList(t *testing.T) {
	bin := buildTools(t)
	out := run(t, filepath.Join(bin, "vpreport"), "-list")
	for _, id := range []string{"table2.1", "fig4.1", "table5.2", "ext:critpath", "ext:sched"} {
		if !strings.Contains(out, id) {
			t.Errorf("vpreport -list missing %s:\n%s", id, out)
		}
	}
}

func TestCLIErrorPaths(t *testing.T) {
	bin := buildTools(t)
	work := t.TempDir()

	// Assembling garbage fails with a line-numbered error.
	bad := filepath.Join(work, "bad.s")
	if err := os.WriteFile(bad, []byte("main:\n\tfrobnicate r1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runExpectError(t, filepath.Join(bin, "vpasm"), bad)
	if !strings.Contains(out, ":2: unknown mnemonic") {
		t.Errorf("vpasm error lacks position: %s", out)
	}

	// Running an unknown benchmark fails and lists the known ones.
	out = runExpectError(t, filepath.Join(bin, "vprun"), "-bench", "nonesuch")
	if !strings.Contains(out, "unknown benchmark") {
		t.Errorf("vprun error: %s", out)
	}

	// Annotating with a mismatched profile fails.
	prof := filepath.Join(work, "m.prof")
	run(t, filepath.Join(bin, "vpprof"), "-bench", "compress", "-n", "1", "-o", prof)
	out = runExpectError(t, filepath.Join(bin, "vpannotate"),
		"-bench", "li", "-prof", prof, "-o", filepath.Join(work, "x.vpimg"))
	if !strings.Contains(out, "not") {
		t.Errorf("vpannotate mismatch error: %s", out)
	}

	// vptrace on a non-trace file fails cleanly.
	out = runExpectError(t, filepath.Join(bin, "vptrace"), "-stats", bad)
	if !strings.Contains(out, "magic") {
		t.Errorf("vptrace error: %s", out)
	}
}
