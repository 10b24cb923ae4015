#!/usr/bin/env bash
# Runs the key simulation-throughput benchmarks with -benchmem and emits a
# machine-readable BENCH_report.json so the perf trajectory can be tracked
# across PRs. Every benchmark runs BENCHCOUNT times and the report keeps
# each leg's fastest count (least ns/op), the same minimum-of-counts
# estimator scripts/bench_smoke.sh gates on. The report sections: "machine"
# (the hardware/Go view the timings came from; the smoke gates read num_cpu
# from here), "benchmarks" (simulation substrate + experiment drivers; the
# BenchmarkAllArtifactsParallel legs time the paper registry sequentially
# and in parallel, and with-extensions times all 17 artifacts that
# `vpreport -extensions` regenerates), "speedups" (paired
# baseline-vs-optimized ratios), "trace_storage" (columnar compression byte
# counts), "batch_kernels" (per-record vs batch replay ns/rec + speedup
# ratios), "recording" (the VM appending into the Recorder's stage vs
# per-record delivery through Recorder.Consume and vs bare execution, ns/op
# + speedup + overhead),
# "server" (vpserve throughput, requests/sec for cached vs uncached evaluate
# calls), and "cluster" (vpcoord sharded-sweep throughput at one vs two
# worker nodes).
# Usage:
#
#   scripts/bench.sh [output.json]
#
# Environment:
#   BENCHTIME          go test -benchtime value (default 1s)
#   BENCHCOUNT         go test -count value (default 5); the report keeps
#                      each leg's fastest count
#   BENCHMARKS         simulation benchmark regex (default: substrate + drivers)
#   SERVER_BENCHMARKS  server benchmark regex (default: the vpserve set)
#   CLUSTER_BENCHMARKS cluster benchmark regex (default: the sharded sweep)
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_report.json}"
BENCHTIME="${BENCHTIME:-1s}"
BENCHCOUNT="${BENCHCOUNT:-5}"
BENCHMARKS="${BENCHMARKS:-^(BenchmarkVMSteps|BenchmarkVMStepsRecording|BenchmarkVMStepsRecordingScalar|BenchmarkReplayVsReexecute|BenchmarkThresholdSweep|BenchmarkMultiEvalSweep|BenchmarkTraceStore|BenchmarkBatchKernels|BenchmarkAllArtifactsParallel|BenchmarkVMExecution|BenchmarkFigure51And52|BenchmarkTable51|BenchmarkFigure53And54|BenchmarkTable52)\$}"
SERVER_BENCHMARKS="${SERVER_BENCHMARKS:-^(BenchmarkServerEvaluateCached|BenchmarkServerEvaluateCachedParallel|BenchmarkServerEvaluateUncached)\$}"
CLUSTER_BENCHMARKS="${CLUSTER_BENCHMARKS:-^BenchmarkClusterSweep\$}"

RAW_SIM="$(mktemp)"
RAW_SRV="$(mktemp)"
RAW_CLU="$(mktemp)"
trap 'rm -f "$RAW_SIM" "$RAW_SRV" "$RAW_CLU"' EXIT

# min_legs rewrites a raw `go test -bench` output file to one line per
# benchmark leg, the line of its fastest count (least ns/op), in first-seen
# order; every section below reads the reduced file.
min_legs() {
    awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in best)) order[++n] = name
    if (!(name in best) || $3 + 0 < ns[name] + 0) { best[name] = $0; ns[name] = $3 }
}
END { for (i = 1; i <= n; i++) print best[order[i]] }
' "$1" > "$1.min"
    mv "$1.min" "$1"
}

go test -run '^$' -bench "$BENCHMARKS" -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" . | tee "$RAW_SIM"
go test -run '^$' -bench "$SERVER_BENCHMARKS" -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" ./internal/server | tee "$RAW_SRV"
go test -run '^$' -bench "$CLUSTER_BENCHMARKS" -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" ./internal/cluster | tee "$RAW_CLU"
for raw in "$RAW_SIM" "$RAW_SRV" "$RAW_CLU"; do
    min_legs "$raw"
done

# Derive baseline-vs-optimized speedups from paired sub-benchmarks
# (sequential/parallel legs of the same benchmark share one trace and one
# machine, so the ns/op ratio is the honest wall-clock win).
emit_speedups() {
    awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3
}
END {
    n = split("BenchmarkThresholdSweep:reexecute:replay BenchmarkMultiEvalSweep:separate:multieval BenchmarkMultiEvalSweep:walkonly-separate:walkonly-multieval BenchmarkMultiEvalSweep:ilp-separate:ilp-multieval BenchmarkTraceStore:walk-aos:walk-columnar BenchmarkTraceStore:walk-spill:walk-columnar BenchmarkAllArtifactsParallel:sequential:parallel", specs, " ")
    first = 1
    for (s = 1; s <= n; s++) {
        split(specs[s], f, ":")
        base = ns[f[1] "/" f[2]]
        opt = ns[f[1] "/" f[3]]
        if (base == "" || opt == "" || opt + 0 == 0) continue
        if (!first) printf ",\n"
        first = 0
        printf "    {\"name\": \"%s\", \"baseline\": \"%s\", \"optimized\": \"%s\", \"speedup_vs_sequential\": %.3f}", f[1], f[2], f[3], base / opt
    }
    printf "\n"
}
' "$1"
}

# Summarize the trace-storage footprint from the BenchmarkTraceStore metric
# columns: bytes/record in memory (the 56-byte Record struct vs the columnar
# encoding) and on disk (the fixed 40-byte VPTRC01 record vs the format
# trace.Writer produces), with the compression ratios bench_smoke.sh gates
# on. These are deterministic byte counts, not timings, so they are
# machine-independent.
emit_trace_storage() {
    awk -v aos=56 -v v1=40 '
/^BenchmarkTraceStore\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "memB/rec")  mem[name] = $i
        if ($(i + 1) == "diskB/rec") disk[name] = $i
    }
}
END {
    col = mem["BenchmarkTraceStore/walk-columnar"]
    v2 = disk["BenchmarkTraceStore/disk-v2"]
    if (col == "" || v2 == "" || col + 0 == 0 || v2 + 0 == 0) exit
    printf "    \"mem_bytes_per_record_aos\": %s,\n", aos
    printf "    \"mem_bytes_per_record_columnar\": %s,\n", col
    printf "    \"mem_compression_ratio\": %.3f,\n", aos / col
    printf "    \"disk_bytes_per_record_v1\": %s,\n", v1
    printf "    \"disk_bytes_per_record_v2\": %s,\n", v2
    printf "    \"disk_compression_ratio\": %.3f\n", v1 / v2
}
' "$1"
}

# Summarize the batch column-kernel replay path from the BenchmarkBatchKernels
# ns/rec metrics: scalar (per-record Consume) vs batch ns/rec for each
# consumer pair, plus the walkonly speedup ratio bench_smoke.sh gates on.
# Both legs of a pair walk the same sealed trace in the same process, so the
# ratio is machine-independent even though the ns/rec values are not.
emit_batch_kernels() {
    awk '
/^BenchmarkBatchKernels\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^BenchmarkBatchKernels\//, "", name)
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "ns/rec") nsrec[name] = $i
    }
}
END {
    n = split("walkonly profiler engine ilp", pairs, " ")
    first = 1
    for (p = 1; p <= n; p++) {
        s = nsrec[pairs[p] "-scalar"]
        b = nsrec[pairs[p] "-batch"]
        if (s == "" || b == "" || b + 0 == 0) continue
        if (!first) printf ",\n"
        first = 0
        printf "    \"ns_per_rec_%s_scalar\": %s,\n", pairs[p], s
        printf "    \"ns_per_rec_%s_batch\": %s,\n", pairs[p], b
        printf "    \"%s_speedup\": %.3f", pairs[p], s / b
    }
    printf "\n"
}
' "$1"
}

# Summarize the recording path: the VM's dispatch loop appending straight
# into the Recorder's stage (BenchmarkVMStepsRecording) against the same
# loop delivering materialized records to the Recorder through Consume
# (BenchmarkVMStepsRecordingScalar), and against bare execution with no
# consumer (BenchmarkVMSteps). All legs execute the same guest on the same
# machine, so the ns/op ratios are the machine-independent recording
# speedup and recording overhead bench_smoke.sh gates on.
emit_recording() {
    awk '
/^BenchmarkVMSteps(Recording(Scalar)?)?(-[0-9]+)?[ \t]/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns[name] = $3
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "Minstr/s") minstr[name] = $i
    }
}
END {
    fused = ns["BenchmarkVMStepsRecording"]
    scalar = ns["BenchmarkVMStepsRecordingScalar"]
    if (fused == "" || scalar == "" || fused + 0 == 0) exit
    printf "    \"ns_per_op_fused\": %s,\n", fused
    printf "    \"ns_per_op_scalar\": %s,\n", scalar
    if (minstr["BenchmarkVMStepsRecording"] != "")
        printf "    \"minstr_per_s_fused\": %s,\n", minstr["BenchmarkVMStepsRecording"]
    if (minstr["BenchmarkVMStepsRecordingScalar"] != "")
        printf "    \"minstr_per_s_scalar\": %s,\n", minstr["BenchmarkVMStepsRecordingScalar"]
    steps = ns["BenchmarkVMSteps"]
    if (steps != "" && steps + 0 > 0) {
        printf "    \"ns_per_op_execute\": %s,\n", steps
        printf "    \"recording_overhead\": %.3f,\n", fused / steps
    }
    printf "    \"recording_speedup\": %.3f\n", scalar / fused
}
' "$1"
}

# Emit the machine section: where this report's timings came from. The smoke
# gates read num_cpu from here (rather than re-probing CI hardware) to decide
# which multi-core-only ratios the committed numbers can legitimately back.
emit_machine() {
    go run ./scripts/benchmeta 2>/dev/null || {
        # Fallback without the helper: shell out for each field.
        printf '    "go_version": "%s",\n' "$(go env GOVERSION)"
        printf '    "os": "%s",\n' "$(go env GOOS)"
        printf '    "arch": "%s",\n' "$(go env GOARCH)"
        printf '    "num_cpu": %s,\n' "$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
        printf '    "gomaxprocs": %s\n' "${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}"
    }
}

# Convert `go test -bench` output lines into a JSON array body:
#   BenchmarkFoo/bar-8  10  123 ns/op  45.6 Minstr/s  678 B/op  9 allocs/op
emit_entries() {
    awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    iters = $2
    if (first_done) printf ",\n"
    first_done = 1
    printf "    {\"name\": \"%s\", \"iterations\": %s", name, iters
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/[\\"]/, "", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { printf "\n" }
' "$1"
}

# Summarize the cluster sweep throughput: req/s at one vs two nodes, plus
# the two-node scaling ratio. Both legs run in-process httptest workers on
# the same machine, so the ratio is a conservative lower bound (it pays
# coordinator HTTP + merge overhead but shares the host's cores).
emit_cluster_scaling() {
    awk '
/^BenchmarkClusterSweep\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i + 1 <= NF; i += 2) {
        if ($(i + 1) == "req/s") rps[name] = $i
    }
}
END {
    one = rps["BenchmarkClusterSweep/1-node"]
    two = rps["BenchmarkClusterSweep/2-node"]
    if (one == "" || two == "" || one + 0 == 0) exit
    printf "    \"sweep_req_per_sec_1_node\": %s,\n", one
    printf "    \"sweep_req_per_sec_2_nodes\": %s,\n", two
    printf "    \"scaling_2_nodes\": %.3f,\n", two / one
}
' "$1"
}

{
    echo "{"
    echo "  \"schema\": \"bench-report/v7\","
    echo "  \"machine\": {"
    emit_machine
    echo "  },"
    echo "  \"benchmarks\": ["
    emit_entries "$RAW_SIM"
    echo "  ],"
    echo "  \"speedups\": ["
    emit_speedups "$RAW_SIM"
    echo "  ],"
    echo "  \"trace_storage\": {"
    emit_trace_storage "$RAW_SIM"
    echo "  },"
    echo "  \"batch_kernels\": {"
    emit_batch_kernels "$RAW_SIM"
    echo "  },"
    echo "  \"recording\": {"
    emit_recording "$RAW_SIM"
    echo "  },"
    echo "  \"server\": ["
    emit_entries "$RAW_SRV"
    echo "  ],"
    echo "  \"cluster\": {"
    emit_cluster_scaling "$RAW_CLU"
    echo "    \"benchmarks\": ["
    emit_entries "$RAW_CLU" | sed 's/^    /        /'
    echo "    ]"
    echo "  }"
    echo "}"
} > "$OUT"

echo "wrote $OUT"
