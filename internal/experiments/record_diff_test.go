package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/profiler"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file pins the record path: the fused execute+encode column loop must
// write the trace the VM's per-record step loop writes, and one benchmark's
// trace file must keep the exact bytes of the committed golden hash.

// recordFile runs bench's evaluation input once with a trace-file Writer as
// the consumer — the vprun -trace shape — and returns the file bytes. A
// Writer attached directly takes the fused column loop; perRecord wraps it
// in a plain ConsumerFunc, which keeps the VM on its per-record step loop.
func recordFile(t *testing.T, bench string, perRecord bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sink trace.Consumer = tw
	if perRecord {
		sink = trace.ConsumerFunc(tw.Consume)
	}
	if _, err := workload.BuildAndRun(bench, workload.EvaluationInput(), sink); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFusedTraceFilesMatchScalarRecord byte-diffs fused against per-record
// trace files across the full workload registry. Short mode keeps one
// benchmark.
func TestFusedTraceFilesMatchScalarRecord(t *testing.T) {
	benches := workload.AllNames()
	if testing.Short() {
		benches = benches[:1]
	}
	for _, bench := range benches {
		fused := recordFile(t, bench, false)
		perRecord := recordFile(t, bench, true)
		if !bytes.Equal(fused, perRecord) {
			t.Errorf("%s: fused trace file differs from the per-record loop's (%d vs %d bytes)",
				bench, len(fused), len(perRecord))
		}
	}
}

// goldenEvalTraceSHA256 is the SHA-256 of compress's VPTRC02 evaluation
// trace file (420,583 records, 4,705,461 bytes). Any change to the VM's
// record stream, the column encoder or the frame layout changes it; update
// it only together with a deliberate format change.
const goldenEvalTraceSHA256 = "ebc786f1352a3a889abefd8438bedc20eedcfe94d5b2e1a82c1399f8c26117a7"

// TestEvalTraceFileGolden pins the on-disk format byte for byte.
func TestEvalTraceFileGolden(t *testing.T) {
	sum := sha256.Sum256(recordFile(t, "compress", false))
	if got := hex.EncodeToString(sum[:]); got != goldenEvalTraceSHA256 {
		t.Errorf("compress evaluation trace file SHA-256 = %s, want %s", got, goldenEvalTraceSHA256)
	}
}

// TestFusedCollectorMatchesScalar checks the live-run ColumnSink adaptation:
// a profiler collector fed by the fused VM loop (batches staged in columns)
// must end up in exactly the state per-record delivery through the step
// loop produces — the profile phase's correctness gate for fused recording.
func TestFusedCollectorMatchesScalar(t *testing.T) {
	const bench = "compress"
	in := workload.TrainingInputs(1)[0]
	fused, scalar := profiler.NewCollector(), profiler.NewCollector()
	if _, err := workload.BuildAndRun(bench, in, fused); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.BuildAndRun(bench, in, trace.ConsumerFunc(scalar.Consume)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectorStats(fused.ForEach), collectorStats(scalar.ForEach)) {
		t.Error("fused-fed profiler.Collector diverges from per-record delivery")
	}
}
