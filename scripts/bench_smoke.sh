#!/usr/bin/env bash
# CI bench smoke for the replay substrate. Five benchmark runs, eight gates:
#
#   1. Single-pass sweep: BenchmarkMultiEvalSweep's multieval-vs-separate
#      walkonly speedup must not regress more than MAX_REGRESSION_PCT versus
#      the committed BENCH_report.json.
#   2. Trace-storage compression (machine-independent byte counts, not
#      timings): the columnar encoding must hold ≥3x fewer in-memory
#      bytes/record than the 56-byte Record struct, and the format
#      trace.Writer produces (VPTRC03) must hold ≥2x fewer on-disk
#      bytes/record than the 40-byte VPTRC01 record.
#   3. Walkonly columnar replay: the walk-columnar/walk-aos throughput ratio
#      (walk-aos walks a plain resident []trace.Record slice; walk-columnar
#      decodes and walks the recorded chunks on the same goroutine) must not
#      regress versus the committed report.
#   4. Spill-mode replay: the walk-spill overhead over resident walk-columnar
#      must not regress versus the committed report.
#   5. Batch column kernels: BenchmarkBatchKernels' walkonly scalar/batch
#      ns/rec ratio (the same Counter replayed through its per-record
#      Consume and through its batch kernel) must stay ≥ MIN_BATCH_SPEEDUP
#      outright (the PR-level acceptance bar) and must not regress more
#      than MAX_REGRESSION_PCT versus the committed report's
#      walkonly_speedup.
#   6. Fused recording: the BenchmarkVMStepsRecordingScalar-vs-
#      BenchmarkVMStepsRecording ns/op ratio (per-record delivery — the
#      VM's one dispatch loop staging into a ColumnSink that materializes
#      records into Recorder.Consume — over the same loop appending straight
#      into the Recorder's stage) must stay ≥ MIN_RECORD_SPEEDUP outright
#      and must not regress more than MAX_REGRESSION_PCT versus the
#      committed report's recording_speedup.
#   6b. Recording overhead: the BenchmarkVMStepsRecording-vs-
#      BenchmarkVMSteps ns/op ratio (the dispatch loop appending into the
#      Recorder's stage over the same loop with no consumer) must not exceed
#      the committed report's recording_overhead by more than
#      MAX_REGRESSION_PCT. Gate 6's scalar leg also pays ColumnSink
#      materialization, so a recording slowdown can hide under it; this
#      ratio measures recording against bare execution alone.
#   7. Experiment-driver allocations: BenchmarkFigure51And52's allocs/op —
#      a deterministic count, not a timing — must not exceed the committed
#      report's value by more than MAX_ALLOC_GROWTH_PCT.
#
# Ratio gates compare the speedup RATIO, not raw ns/op — the committed
# report comes from a different machine than CI, so absolute times are
# incomparable while a ratio (same trace, same binary, same machine) isolates
# the property itself. Usage:
#
#   scripts/bench_smoke.sh [BENCH_report.json]
#
# Environment:
#   BENCHTIME          go test -benchtime value (default 1s)
#   BENCHCOUNT         go test -count value (default 5); gates use the
#                      per-leg MINIMUM across counts — the standard
#                      noise-robust estimator on shared CI machines, where a
#                      single interval can be off by ±35% from CPU steal
#   MAX_REGRESSION_PCT allowed ratio loss in percent (default 20)
#   MIN_BATCH_SPEEDUP  absolute floor for the batch-kernel walkonly
#                      scalar/batch ratio (default 2.0)
#   MIN_RECORD_SPEEDUP absolute floor for the scalar/fused recording ns/op
#                      ratio (default 1.3, the ratio measured on a 2-vCPU
#                      box when the scalar leg still ran a separate
#                      per-record interpreter loop; the original 1.6 bar
#                      was never met)
#   MAX_ALLOC_GROWTH_PCT allowed allocs/op growth for BenchmarkFigure51And52
#                      versus the committed report (default 10)
set -euo pipefail
cd "$(dirname "$0")/.."

REPORT="${1:-BENCH_report.json}"
BENCHTIME="${BENCHTIME:-1s}"
BENCHCOUNT="${BENCHCOUNT:-5}"
MAX_REGRESSION_PCT="${MAX_REGRESSION_PCT:-20}"
MIN_BATCH_SPEEDUP="${MIN_BATCH_SPEEDUP:-2.0}"
MIN_RECORD_SPEEDUP="${MIN_RECORD_SPEEDUP:-1.3}"
MAX_ALLOC_GROWTH_PCT="${MAX_ALLOC_GROWTH_PCT:-10}"

committed_speedup() {
    grep -o "\"baseline\": \"$1\", \"optimized\": \"$2\", \"speedup_vs_sequential\": [0-9.]*" "$REPORT" \
        | head -1 | awk '{print $NF}'
}

committed_multi=$(committed_speedup walkonly-separate walkonly-multieval)
committed_walk=$(committed_speedup walk-aos walk-columnar)
committed_spill=$(committed_speedup walk-spill walk-columnar)
committed_batch=$(grep -o '"walkonly_speedup": [0-9.]*' "$REPORT" | head -1 | awk '{print $NF}')
committed_record=$(grep -o '"recording_speedup": [0-9.]*' "$REPORT" | head -1 | awk '{print $NF}')
committed_overhead=$(grep -o '"recording_overhead": [0-9.]*' "$REPORT" | head -1 | awk '{print $NF}')
committed_allocs=$(grep -o '"name": "BenchmarkFigure51And52"[^}]*' "$REPORT" | grep -o '"allocs/op": [0-9]*' | head -1 | awk '{print $NF}')
if [[ -z "$committed_multi" || -z "$committed_walk" || -z "$committed_spill" || -z "$committed_batch" || -z "$committed_record" || -z "$committed_overhead" || -z "$committed_allocs" ]]; then
    echo "bench_smoke: missing committed speedups in $REPORT (run scripts/bench.sh)" >&2
    exit 1
fi

RAW_MULTI="$(mktemp)"
RAW_STORE="$(mktemp)"
RAW_BATCH="$(mktemp)"
RAW_REC="$(mktemp)"
RAW_ALLOC="$(mktemp)"
trap 'rm -f "$RAW_MULTI" "$RAW_STORE" "$RAW_BATCH" "$RAW_REC" "$RAW_ALLOC"' EXIT
go test -run '^$' -bench '^BenchmarkMultiEvalSweep/walkonly' -benchtime "$BENCHTIME" -count "$BENCHCOUNT" . | tee "$RAW_MULTI"
go test -run '^$' -bench '^BenchmarkTraceStore$' -benchtime "$BENCHTIME" -count "$BENCHCOUNT" . | tee "$RAW_STORE"
go test -run '^$' -bench '^BenchmarkBatchKernels/walkonly' -benchtime "$BENCHTIME" -count "$BENCHCOUNT" . | tee "$RAW_BATCH"
go test -run '^$' -bench '^(BenchmarkVMSteps|BenchmarkVMStepsRecording|BenchmarkVMStepsRecordingScalar)$' -benchtime "$BENCHTIME" -count "$BENCHCOUNT" . | tee "$RAW_REC"
go test -run '^$' -bench '^BenchmarkFigure51And52$' -benchmem -benchtime 2x . | tee "$RAW_ALLOC"

# Gate 1: the pass-merging machinery. The walkonly pair isolates it from
# predictor-table work, so its ratio is stable where the engine pair's is
# not (engine updates dominate the walk and swing with machine noise).
awk -v committed="$committed_multi" -v max="$MAX_REGRESSION_PCT" '
/^BenchmarkMultiEvalSweep\/walkonly-separate/  { if (sep == "" || $3 + 0 < sep + 0) sep = $3 }
/^BenchmarkMultiEvalSweep\/walkonly-multieval/ { if (multi == "" || $3 + 0 < multi + 0) multi = $3 }
END {
    if (sep == "" || multi == "" || multi + 0 == 0) {
        print "bench_smoke: benchmark produced no ns/op numbers" > "/dev/stderr"
        exit 1
    }
    cur = sep / multi
    floor = committed * (1 - max / 100)
    printf "bench_smoke: multieval speedup %.3fx (committed %.3fx, floor %.3fx)\n", cur, committed, floor
    if (cur < floor) {
        printf "bench_smoke: FAIL — single-pass sweep regressed more than %s%%\n", max > "/dev/stderr"
        exit 1
    }
}' "$RAW_MULTI"

# Gates 2–4: the columnar trace store.
awk -v committed_walk="$committed_walk" -v committed_spill="$committed_spill" \
    -v max="$MAX_REGRESSION_PCT" '
/^BenchmarkTraceStore\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (ns[name] == "" || $3 + 0 < ns[name] + 0) ns[name] = $3
    for (i = 5; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "memB/rec")  mem[name] = $i
        if ($(i + 1) == "diskB/rec") disk[name] = $i
    }
}
END {
    aos = ns["BenchmarkTraceStore/walk-aos"]
    col = ns["BenchmarkTraceStore/walk-columnar"]
    spill = ns["BenchmarkTraceStore/walk-spill"]
    if (aos == "" || col == "" || spill == "" || col + 0 == 0) {
        print "bench_smoke: BenchmarkTraceStore produced no walk numbers" > "/dev/stderr"
        exit 1
    }

    # Gate 2: compression ratios (deterministic byte counts) against the
    # 56-byte in-memory Record and the 40-byte VPTRC01 file record.
    if (mem["BenchmarkTraceStore/walk-columnar"] + 0 == 0 || disk["BenchmarkTraceStore/disk-v2"] + 0 == 0) {
        print "bench_smoke: BenchmarkTraceStore produced no memB/rec or diskB/rec metrics" > "/dev/stderr"
        exit 1
    }
    memratio = 56 / mem["BenchmarkTraceStore/walk-columnar"]
    diskratio = 40 / disk["BenchmarkTraceStore/disk-v2"]
    printf "bench_smoke: in-memory compression %.2fx (gate >= 3), on-disk %.2fx (gate >= 2)\n", memratio, diskratio
    if (memratio < 3 || diskratio < 2) {
        print "bench_smoke: FAIL — trace-storage compression below the gate" > "/dev/stderr"
        exit 1
    }

    # Gate 3: walkonly columnar throughput vs the resident Record slice.
    walk = aos / col
    floor = committed_walk * (1 - max / 100)
    printf "bench_smoke: walkonly columnar/slice throughput ratio %.3f (committed %.3f, floor %.3f)\n", walk, committed_walk, floor
    if (walk < floor) {
        printf "bench_smoke: FAIL — columnar walk regressed more than %s%% vs the committed ratio\n", max > "/dev/stderr"
        exit 1
    }

    # Gate 4: spill-mode replay overhead vs resident columnar.
    over = spill / col
    ceiling = committed_spill * (1 + max / 100)
    printf "bench_smoke: spill-mode walk overhead %.3fx of resident (committed %.3fx, ceiling %.3fx)\n", over, committed_spill, ceiling
    if (over > ceiling) {
        printf "bench_smoke: FAIL — spill-mode replay regressed more than %s%%\n", max > "/dev/stderr"
        exit 1
    }
}' "$RAW_STORE"

# Gate 5: the batch column kernels. Both legs walk the same sealed trace
# through a near-free consumer, so the scalar/batch ns/rec ratio isolates
# decode + dispatch overhead and is machine-independent: it must clear the
# absolute acceptance bar AND not regress versus the committed report.
awk -v committed="$committed_batch" -v max="$MAX_REGRESSION_PCT" -v minratio="$MIN_BATCH_SPEEDUP" '
/^BenchmarkBatchKernels\/walkonly-/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "ns/rec" && (ns[name] == "" || $i + 0 < ns[name] + 0)) ns[name] = $i
    }
}
END {
    scalar = ns["BenchmarkBatchKernels/walkonly-scalar"]
    batch = ns["BenchmarkBatchKernels/walkonly-batch"]
    if (scalar == "" || batch == "" || batch + 0 == 0) {
        print "bench_smoke: BenchmarkBatchKernels produced no ns/rec numbers" > "/dev/stderr"
        exit 1
    }
    cur = scalar / batch
    floor = committed * (1 - max / 100)
    printf "bench_smoke: batch-kernel walkonly speedup %.3fx (committed %.3fx, floor %.3fx, absolute bar %.2fx)\n", cur, committed, floor, minratio
    if (cur < minratio + 0) {
        printf "bench_smoke: FAIL — batch walkonly speedup below the %.2fx acceptance bar\n", minratio > "/dev/stderr"
        exit 1
    }
    if (cur < floor) {
        printf "bench_smoke: FAIL — batch kernels regressed more than %s%% vs the committed ratio\n", max > "/dev/stderr"
        exit 1
    }
}' "$RAW_BATCH"

# Gate 6: the fused recording path. Both legs run the same dispatch loop on
# the same guest into the same Recorder; the scalar leg additionally pays
# record materialization and per-record Consume, so the scalar/fused ns/op
# ratio isolates what appending straight into the Recorder's stage buys over
# per-record delivery and must clear the absolute acceptance bar AND not
# regress versus the committed report.
awk -v committed="$committed_record" -v max="$MAX_REGRESSION_PCT" -v minratio="$MIN_RECORD_SPEEDUP" '
/^BenchmarkVMStepsRecording(-[0-9]+)?[ \t]/       { if (fused == "" || $3 + 0 < fused + 0) fused = $3 }
/^BenchmarkVMStepsRecordingScalar(-[0-9]+)?[ \t]/ { if (scalar == "" || $3 + 0 < scalar + 0) scalar = $3 }
END {
    if (fused == "" || scalar == "" || fused + 0 == 0) {
        print "bench_smoke: recording benchmarks produced no ns/op numbers" > "/dev/stderr"
        exit 1
    }
    cur = scalar / fused
    floor = committed * (1 - max / 100)
    printf "bench_smoke: fused recording speedup %.3fx (committed %.3fx, floor %.3fx, absolute bar %.2fx)\n", cur, committed, floor, minratio
    if (cur < minratio + 0) {
        printf "bench_smoke: FAIL — fused recording speedup below the %.2fx acceptance bar\n", minratio > "/dev/stderr"
        exit 1
    }
    if (cur < floor) {
        printf "bench_smoke: FAIL — fused recording regressed more than %s%% vs the committed ratio\n", max > "/dev/stderr"
        exit 1
    }
}' "$RAW_REC"

# Gate 6b: recording against bare execution. Both legs run the same
# dispatch loop on the same guest; the recording leg additionally stages
# every record into the Recorder's columns and encodes the chunks, so the
# ratio is what recording costs and must not grow past the committed one.
awk -v committed="$committed_overhead" -v max="$MAX_REGRESSION_PCT" '
/^BenchmarkVMSteps(-[0-9]+)?[ \t]/          { if (steps == "" || $3 + 0 < steps + 0) steps = $3 }
/^BenchmarkVMStepsRecording(-[0-9]+)?[ \t]/ { if (fused == "" || $3 + 0 < fused + 0) fused = $3 }
END {
    if (steps == "" || fused == "" || steps + 0 == 0) {
        print "bench_smoke: BenchmarkVMSteps produced no ns/op numbers" > "/dev/stderr"
        exit 1
    }
    cur = fused / steps
    ceiling = committed * (1 + max / 100)
    printf "bench_smoke: recording overhead %.3fx of bare execution (committed %.3fx, ceiling %.3fx)\n", cur, committed, ceiling
    if (cur > ceiling) {
        printf "bench_smoke: FAIL — recording overhead grew more than %s%% vs the committed ratio\n", max > "/dev/stderr"
        exit 1
    }
}' "$RAW_REC"

# Gate 7: experiment-driver allocations. allocs/op is a deterministic count
# (modulo pool warmup on the first iteration), so it compares across machines
# where timings cannot; growth past the committed value means a pooled or
# arena'd path started allocating again.
awk -v committed="$committed_allocs" -v max="$MAX_ALLOC_GROWTH_PCT" '
/^BenchmarkFigure51And52(-[0-9]+)?[ \t]/ {
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "allocs/op") allocs = $i
    }
}
END {
    if (allocs == "") {
        print "bench_smoke: BenchmarkFigure51And52 produced no allocs/op" > "/dev/stderr"
        exit 1
    }
    ceiling = committed * (1 + max / 100)
    printf "bench_smoke: Figure51And52 allocations %d allocs/op (committed %d, ceiling %.0f)\n", allocs, committed, ceiling
    if (allocs + 0 > ceiling) {
        printf "bench_smoke: FAIL — experiment-driver allocations grew more than %s%%\n", max > "/dev/stderr"
        exit 1
    }
    print "bench_smoke: OK"
}' "$RAW_ALLOC"
