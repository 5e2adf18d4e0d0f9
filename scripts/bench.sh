#!/bin/sh
# Runs the throughput benchmarks behind the evaluation stack — the
# compiled core kernel, the Monte-Carlo band curve (batch walk and
# compiled end to end), Sobol sensitivity, and the server's /v1/ttm
# response-cache hit path and what-if miss path (new market conditions
# on every request) — and records them as JSON: ns/op, allocs/op,
# and the model-evaluations-per-second metric the benchmarks report, so
# speedups (and allocation regressions) can be tracked across commits.
#
# It then records the timeline step-sweep (per-step evaluation at 64
# and 512 steps, on one CPU) as BENCH_timeline.json in steps/s, the
# distributed-job run (heavy mc-band batch jobs sharded across a 4-node
# in-process ring with a mid-run node kill, every shard real compute) as
# BENCH_distjobs.json in jobs/s, and the netsplit partition run (a
# 4-node ring crossing a mid-run asymmetric partition and heal) as
# BENCH_netsplit.json with per-phase RPS and the heal-to-reconvergence
# time. The serving paths end to end — cache hits and misses, the
# forward hop and scatter/gather — are measured by bench/run.sh.
#
# After the measurement runs, a delta table against the committed
# BENCH_*.json baselines is printed (% change per benchmark/scenario)
# so perf movement is visible in PR logs even when every guard passes.
#
#   scripts/bench.sh [out.json] [timeline_out.json] [distjobs_out.json] [netsplit_out.json]
#                # defaults: BENCH_jobs.json BENCH_timeline.json
#                #           BENCH_distjobs.json BENCH_netsplit.json
#   BENCHTIME=5s scripts/bench.sh     # longer kernel runs for stabler numbers
#   BENCHCOUNT=5 scripts/bench.sh     # more repetitions per benchmark
#   SERVE_DURATION=10s scripts/bench.sh   # longer distjobs and netsplit runs
#   BENCH_STRICT=1 scripts/bench.sh   # exit non-zero when a guard fails
#
# The kernel and timeline benchmark suites run BENCHCOUNT times each
# (default 3) and the recorded figure per benchmark is the best
# repetition: on a shared or 1-vCPU runner the dominant error is
# external load arriving in waves, which penalizes whichever benchmark
# happens to be running — taking the per-benchmark minimum ns/op
# compares each benchmark on its quiet-machine behavior instead of on
# scheduler luck. Repetitions are whole-suite reruns rather than
# `go test -count` (which repeats each benchmark back-to-back, so one
# load wave can sink every repetition of a single benchmark): rerunning
# the suite spreads the repetitions of each benchmark across the full
# wall-clock span of the run.
#
# BenchmarkJobRun (internal/jobs: one whole single-node job per op, per
# studies kind) and the timeline step-sweep run pinned to one CPU: with
# more, sweep.ForChunks starts its workers per call, so their allocs/op
# would depend on the host's core count rather than on the code.
#
# Every row records the `cpu:` line of the `go test -bench` run that
# measured it (the fleet records the host of the kernel runs). Beside
# each ns/op and rate guard the script prints "recorded on X, running
# on Y" when the committed row's host differs from this one, and
# "recorded on unknown host" for a row without a cpu field: a 2x
# ceiling taken on a faster host guards less than it seems.
#
# Guards (loud warning, failing the run when BENCH_STRICT=1, as CI
# runs it):
#   - the batched band curve (BandCurveBatch) or the batch CAS kernel
#     (EvaluatorCASBatch) below half the rate of its row in the
#     BENCH_jobs.json committed at HEAD, or that row missing
#   - a per-call evaluation (EvaluatorEval) or CAS (EvaluatorCAS) above
#     twice the ns/op of its committed row, or that row missing
#   - the server's cached hit (ServerTTMCachedHit) or what-if miss
#     (ServerWhatIfMiss) above twice the ns/op or above the allocs/op
#     of its committed row, or that row missing
#   - a whole job (JobRun/<kind>) above the allocs/op of its committed
#     row, or that row missing
#   - the 512-step timeline sweep (TimelineParallel/steps=512) above the
#     allocs/op of its BENCH_timeline.json row, or that row missing
#   - the batched band curve allocating on its steady-state path
#   - the distjobs or netsplit run failing its ttmcas-loadgen -check
#     contract (the loadgen names the failed clause on stderr)
set -eu

out="${1:-BENCH_jobs.json}"
timelineout="${2:-BENCH_timeline.json}"
distjobsout="${3:-BENCH_distjobs.json}"
netsplitout="${4:-BENCH_netsplit.json}"
tmp="$(mktemp)"
tmpbest="$(mktemp)"
tmptl="$(mktemp)"
tmptlbest="$(mktemp)"
tmpkvnew="$(mktemp)"
tmpkvold="$(mktemp)"
tmpbin="$(mktemp -d)"
trap 'rm -f "$tmp" "$tmpbest" "$tmptl" "$tmptlbest" "$tmpkvnew" "$tmpkvold"; rm -rf "$tmpbin"' EXIT

# best_of reduces repeated benchmark lines to one line per benchmark —
# the repetition with the lowest ns/op — as "name ns allocs metric"
# rows, where metric is the benchmark's reported rate (evals/s or
# steps/s, "null" when absent).
best_of() {
    awk -v metric="$1" '
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            ns = ""; rate = "null"; allocs = "null"
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/op")     ns = $i
                if ($(i+1) == metric)      rate = $i
                if ($(i+1) == "allocs/op") allocs = $i
            }
            if (ns == "") next
            if (!(name in best)) { order[++cnt] = name }
            if (!(name in best) || ns + 0 < best[name] + 0) {
                best[name] = ns; brate[name] = rate; ballocs[name] = allocs
            }
        }
        END {
            for (i = 1; i <= cnt; i++) {
                n = order[i]
                print n, best[n], ballocs[n], brate[n]
            }
        }'
}

# host_of prints the `cpu:` line of go test -bench output on stdin.
host_of() { awk '/^cpu: / { sub(/^cpu: /, ""); print; exit }'; }

# emit_json turns a best-of table into the recorded JSON document; $3
# is the host that measured every row.
emit_json() {
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "benchmarks": [\n'
    awk -v field="$2" -v cpu="$3" '
        {
            name = $1
            sub(/^Benchmark/, "", name)
            if (n++) printf ",\n"
            printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"%s\": %s, \"cpu\": \"%s\"}", name, $2, $3, field, $4, cpu
        }
        END { printf "\n" }
    ' "$1"
    printf '  ]\n'
    printf '}\n'
}

: > "$tmp"
rep=0
while [ "$rep" -lt "${BENCHCOUNT:-3}" ]; do
    go test -run '^$' -bench '^Benchmark(BandCurve|Sobol|ModelEvaluate|Evaluator|ServerTTMCachedHit|ServerWhatIfMiss)' -benchmem \
        -benchtime "${BENCHTIME:-2s}" \
        ./internal/core ./internal/mc ./internal/sens ./internal/server | tee -a "$tmp"
    go test -run '^$' -bench '^BenchmarkJobRun$' -benchmem -cpu 1 \
        -benchtime "${BENCHTIME:-2s}" ./internal/jobs | tee -a "$tmp"
    rep=$((rep + 1))
done
best_of "evals/s" < "$tmp" > "$tmpbest"
host="$(host_of < "$tmp")"

emit_json "$tmpbest" evals_per_s "$host" > "$out"
echo "wrote $out"

guard_status=0
best_field() {
    # $1 = benchmark name (without the Benchmark prefix), $2 = table,
    # $3 = column: 2 ns/op, 3 allocs/op, 4 rate.
    awk -v n="Benchmark$1" -v c="$3" '$1 == n { print $c; exit }' "$2"
}

baseline_of() { git show "HEAD:$1" 2>/dev/null || true; }

# host_note names the host a committed BENCH_jobs.json row was
# recorded on when it is not this one.
host_note() {
    rowhost="$(baseline_of BENCH_jobs.json |
        sed -n "s|.*\"name\": \"$1\",.*\"cpu\": \"\([^\"]*\)\"}.*|\1|p")"
    if [ -z "$rowhost" ]; then
        echo "  note: $1 recorded on unknown host, running on ${host:-unknown host}"
    elif [ "$rowhost" != "$host" ]; then
        echo "  note: $1 recorded on $rowhost, running on ${host:-unknown host}"
    fi
}

# Batch-kernel rate guards: each benchmark must hold at least half the
# evals/s of its row in the BENCH_jobs.json committed at HEAD. Runs on
# one shared host spread by up to ±30% (see README), so half the
# committed rate is a real regression, not a load wave. A missing row
# fails the guard: a guard without a baseline guards nothing.
rate_guard() {
    rate="$(best_field "$1" "$tmpbest" 4)"
    base="$(baseline_of BENCH_jobs.json |
        sed -n "s/.*\"name\": \"$1\",.*\"evals_per_s\": \([0-9.eE+-]*\)[,}].*/\1/p")"
    if [ -z "$rate" ] || [ "$rate" = "null" ] || [ -z "$base" ]; then
        echo "WARNING: $1 has no measured rate or no committed BENCH_jobs.json row" >&2
        guard_status=1
    elif awk -v r="$rate" -v b="$base" 'BEGIN { exit !(r < b / 2) }'; then
        echo "WARNING: $1 (${rate} evals/s) below half its committed rate (${base})" >&2
        guard_status=1
    else
        echo "ok: $1 ${rate} evals/s >= half its committed rate (${base})"
    fi
    host_note "$1"
}
rate_guard BandCurveBatch
rate_guard EvaluatorCASBatch
rate_guard EvaluatorEvalBatch
rate_guard SobolBatch

# Per-call ceiling guards: the per-call methods run the batch kernel on
# a one-sample batch, so their ns/op must stay at most twice their row
# in the BENCH_jobs.json committed at HEAD. A missing row fails the
# guard, as for the rate guards.
ns_guard() {
    ns="$(best_field "$1" "$tmpbest" 2)"
    base="$(baseline_of BENCH_jobs.json |
        sed -n "s/.*\"name\": \"$1\", \"ns_per_op\": \([0-9.eE+-]*\),.*/\1/p")"
    if [ -z "$ns" ] || [ -z "$base" ]; then
        echo "WARNING: $1 has no measured ns/op or no committed BENCH_jobs.json row" >&2
        guard_status=1
    elif awk -v n="$ns" -v b="$base" 'BEGIN { exit !(n > 2 * b) }'; then
        echo "WARNING: $1 (${ns} ns/op) above twice its committed ns/op (${base})" >&2
        guard_status=1
    else
        echo "ok: $1 ${ns} ns/op <= twice its committed ns/op (${base})"
    fi
    host_note "$1"
}
ns_guard EvaluatorEval
ns_guard EvaluatorCAS

# Serving ceilings: the response cache's hit path and the what-if miss
# path through the whole in-process stack must stay at most twice the
# ns/op and at most the allocs/op of their rows committed at HEAD; a
# missing row fails the guard. (Row names may hold a "/", hence the
# "|" delimiter.) allocs_guard NAME [TABLE RECORD] reads the measured
# figure from TABLE (default: the kernel runs) and the committed one
# from RECORD (default: BENCH_jobs.json).
allocs_guard() {
    allocs="$(best_field "$1" "${2:-$tmpbest}" 3)"
    record="${3:-BENCH_jobs.json}"
    base="$(baseline_of "$record" |
        sed -n "s|.*\"name\": \"$1\",.*\"allocs_per_op\": \([0-9.eE+-]*\),.*|\1|p")"
    if [ -z "$allocs" ] || [ "$allocs" = "null" ] || [ -z "$base" ]; then
        echo "WARNING: $1 has no measured allocs/op or no committed $record row" >&2
        guard_status=1
    elif awk -v a="$allocs" -v b="$base" 'BEGIN { exit !(a > b) }'; then
        echo "WARNING: $1 (${allocs} allocs/op) above its committed allocs/op (${base})" >&2
        guard_status=1
    else
        echo "ok: $1 ${allocs} allocs/op <= its committed allocs/op (${base})"
    fi
}
for b in ServerTTMCachedHit ServerWhatIfMiss; do
    ns_guard "$b"
    allocs_guard "$b"
done

# Whole-job ceilings: a single-node job of each studies kind, at the
# studies sizes, must stay at or below the allocs/op of its committed
# row; a missing row fails the guard.
for b in mc-band-ttm mc-band-cas sensitivity sweep timeline; do
    allocs_guard "JobRun/$b"
done

# The band-curve walk must stay allocation-free in steady state. The
# check runs it on one CPU: with more, sweep.ForChunks starts its
# workers per call (a few allocations each time), while on one it runs
# the chunks inline — the steady state TestBandCurveBatchAllocs pins.
batch_allocs="$(go test -run '^$' -bench '^BenchmarkBandCurveBatch$' -benchmem -benchtime 2000x -cpu 1 ./internal/mc |
    awk '/^BenchmarkBandCurveBatch/ { for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')"
if [ -z "$batch_allocs" ]; then
    echo "WARNING: missing BandCurveBatch benchmark" >&2
    guard_status=1
elif [ "$batch_allocs" != "0" ]; then
    echo "WARNING: BandCurveBatch allocates (${batch_allocs} allocs/op), want 0" >&2
    guard_status=1
else
    echo "ok: BandCurveBatch steady state allocation-free"
fi

# ---- timeline step sweep -------------------------------------------
# Per-step timeline evaluation of a 3-segment disruption spec at 64 and
# 512 steps on one CPU, recorded in steps/s. The 512-step run must stay
# at or below the allocs/op of its committed row: the step loop composes
# each step's conditions into a buffer its worker reuses, so a step
# allocates only its summary string and its finite TTM.
: > "$tmptl"
rep=0
while [ "$rep" -lt "${BENCHCOUNT:-3}" ]; do
    go test -run '^$' -bench 'Timeline' -benchmem -cpu 1 \
        -benchtime "${BENCHTIME:-2s}" ./internal/timeline | tee -a "$tmptl"
    rep=$((rep + 1))
done
best_of "steps/s" < "$tmptl" > "$tmptlbest"
allocs_guard TimelineParallel/steps=512 "$tmptlbest" BENCH_timeline.json

emit_json "$tmptlbest" steps_per_s "$(host_of < "$tmptl")" > "$timelineout"
echo "wrote $timelineout"

# ---- fleet runs ----------------------------------------------------
# Each run's contract is ttmcas-loadgen's own -check: a failed contract
# exits non-zero and names its clause on stderr, while the JSON record
# on stdout is kept either way.
go build -o "$tmpbin/ttmcas-loadgen" ./cmd/ttmcas-loadgen
servedur="${SERVE_DURATION:-3s}"

# fleet_run OUT ARGS... runs one checked loadgen scenario and records
# its JSON line as OUT.
fleet_run() {
    fout="$1"
    shift
    if line="$("$tmpbin/ttmcas-loadgen" "$@" -d "$servedur" -json -check)"; then
        echo "ok: ttmcas-loadgen $* met its -check contract"
    else
        echo "WARNING: ttmcas-loadgen $* failed its -check contract" >&2
        guard_status=1
    fi
    {
        printf '{\n'
        printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
        printf '  "go": "%s",\n' "$(go env GOVERSION)"
        printf '  "cpu": "%s",\n' "$host"
        printf '  "runs": [\n'
        printf '    %s\n' "$line"
        printf '  ]\n'
        printf '}\n'
    } > "$fout"
    echo "wrote $fout"
}

# Heavy mc-band batch jobs sharded across a 4-node ring with a mid-run
# node kill and rejoin, every shard real compute: zero lost jobs,
# remotely completed shards, the killed node restarted and the ring
# reconverged.
fleet_run "$distjobsout" -scenario distjobs -nodes 4 -kill -c 3

# A 4-node ring driven through healthy / partitioned / healed phases:
# mid-run every majority node's traffic to the last node is blackholed
# (its own outbound keeps working — the asymmetric case), then the
# partition heals. No request or job may be lost; breakers must open
# during the split and all be closed again at the end; the ring must
# reconverge; and the majority side must hold at least half the
# healthy throughput while the split is open.
fleet_run "$netsplitout" -scenario netsplit -nodes 4 -c 2

# ---- delta vs committed baselines ----------------------------------
# Informational only (never flips guard_status): % change for every
# benchmark/scenario against the BENCH_*.json committed at HEAD, so
# perf movement is visible in run logs even when every guard passes.
# For ns/op tables negative is faster; for rate tables (RPS, jobs/s)
# positive is faster. A table is skipped when HEAD carries no baseline
# for it (first run, or git unavailable).
kv_ns() { sed -n 's/.*"name": "\([^"]*\)", "ns_per_op": \([0-9.eE+-]*\).*/\1 \2/p'; }
kv_rate() {
    # One "label rate" row per line bearing a "scenario" tag; the first
    # occurrence of the rate key on the line is the aggregate figure.
    awk -v key="$1" '
        match($0, /"scenario":"[^"]*"/) {
            label = substr($0, RSTART + 12, RLENGTH - 13)
            if (match($0, /"nodes":[0-9]+/))
                label = label "-nodes=" substr($0, RSTART + 8, RLENGTH - 8)
            if (match($0, "\"" key "\":[0-9.eE+-]+"))
                print label, substr($0, RSTART + length(key) + 3, RLENGTH - length(key) - 3)
        }'
}
delta_section() {
    # $1 = table title; reads the freshly extracted "label value" rows
    # from $tmpkvnew and the committed baseline rows from $tmpkvold.
    if [ ! -s "$tmpkvold" ]; then
        echo "delta: $1 -- no committed baseline at HEAD, skipped"
        return
    fi
    echo "delta: $1 (new vs committed baseline)"
    awk 'NR == FNR { old[$1] = $2; next }
         {
             if (($1 in old) && old[$1] + 0 != 0)
                 printf "  %-44s %14s %14s %+7.1f%%\n", $1, $2, old[$1], ($2 - old[$1]) / old[$1] * 100
             else
                 printf "  %-44s %14s %14s %8s\n", $1, $2, "-", "n/a"
         }' "$tmpkvold" "$tmpkvnew"
}

kv_ns < "$out" > "$tmpkvnew"
baseline_of BENCH_jobs.json | kv_ns > "$tmpkvold"
delta_section "kernel ns/op (negative = faster)"

kv_ns < "$timelineout" > "$tmpkvnew"
baseline_of BENCH_timeline.json | kv_ns > "$tmpkvold"
delta_section "timeline ns/op (negative = faster)"

kv_rate jobs_per_sec < "$distjobsout" > "$tmpkvnew"
baseline_of BENCH_distjobs.json | kv_rate jobs_per_sec > "$tmpkvold"
delta_section "distributed jobs/s (positive = faster)"

kv_netsplit() {
    awk '
        match($0, /"healthy_rps":[0-9.eE+-]+/)     { print "healthy", substr($0, RSTART + 14, RLENGTH - 14) }
        match($0, /"partitioned_rps":[0-9.eE+-]+/) { print "partitioned", substr($0, RSTART + 18, RLENGTH - 18) }
        match($0, /"healed_rps":[0-9.eE+-]+/)      { print "healed", substr($0, RSTART + 13, RLENGTH - 13) }
    '
}
kv_netsplit < "$netsplitout" > "$tmpkvnew"
baseline_of BENCH_netsplit.json | kv_netsplit > "$tmpkvold"
delta_section "netsplit phase RPS (positive = faster)"

if [ "$guard_status" -ne 0 ] && [ "${BENCH_STRICT:-0}" = "1" ]; then
    echo "FAIL: benchmark guards failed (see warnings above)" >&2
    exit 1
fi
exit 0
