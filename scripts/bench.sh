#!/bin/sh
# Runs the throughput benchmarks behind the evaluation stack — the
# compiled core kernel, the Monte-Carlo band curve (batch walk and
# compiled end to end), and Sobol sensitivity — and records them as
# JSON: ns/op, allocs/op, and the model-evaluations-per-second metric
# the benchmarks report, so speedups (and allocation regressions) can
# be tracked across commits.
#
# It then load-tests the serving layer with ttmcas-loadgen (cached-hit,
# uncached and mixed /v1/ttm scenarios against an in-process server)
# and records RPS and p50/p95/p99/max latency as BENCH_serve.json,
# followed by the cluster scaling sweep (N in 1, 2, 4 in-process nodes
# under the latency-bound cluster scenario) recorded as
# BENCH_cluster.json with per-N RPS and the forward-hop p99, the
# timeline step-sweep (per-step evaluation at 64 and 512 steps)
# recorded as BENCH_timeline.json in steps/s, and the
# distributed-job sweep (heavy mc-band batch jobs sharded across a
# 4-node in-process ring with a mid-run node kill, vs the same workload
# single-node) recorded as BENCH_distjobs.json in jobs/s, and the
# netsplit partition sweep (a 4-node ring crossing a mid-run asymmetric
# partition and heal) recorded as BENCH_netsplit.json with per-phase
# RPS and the heal-to-reconvergence time.
#
# After the measurement runs, a delta table against the committed
# BENCH_*.json baselines is printed (% change per benchmark/scenario)
# so perf movement is visible in PR logs even when every guard passes.
#
#   scripts/bench.sh [out.json] [serve_out.json] [cluster_out.json] [timeline_out.json] [distjobs_out.json] [netsplit_out.json]
#                # defaults: BENCH_jobs.json BENCH_serve.json
#                #           BENCH_cluster.json BENCH_timeline.json
#                #           BENCH_distjobs.json BENCH_netsplit.json
#   BENCHTIME=5s scripts/bench.sh     # longer kernel runs for stabler numbers
#   BENCHCOUNT=5 scripts/bench.sh     # more repetitions per benchmark
#   SERVE_DURATION=10s scripts/bench.sh   # longer load-test scenarios
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
# Guards (loud warning, failing the run when BENCH_STRICT=1, as CI
# runs it):
#   - batched band curve below 2x the pre-batch compiled driver
#     (3.68M evals/s) or allocating on its steady-state path
#   - cached-hit p99 latency not below uncached p99
#   - cached-hit RPS below 3x uncached RPS
#   - 4-node cluster RPS below 0.8 x 4 x single-node RPS
#   - 4-node distributed jobs/s below 0.7 x 4 x single-node jobs/s
#   - distjobs sweep losing jobs, completing no remote shards at N=4,
#     or failing to reconverge the ring after the mid-run kill
#   - netsplit sweep losing requests or jobs, breakers never opening
#     (or still open after the heal), the ring not reconverging, or
#     partitioned-phase RPS below half the healthy phase's
set -eu

out="${1:-BENCH_jobs.json}"
serveout="${2:-BENCH_serve.json}"
clusterout="${3:-BENCH_cluster.json}"
timelineout="${4:-BENCH_timeline.json}"
distjobsout="${5:-BENCH_distjobs.json}"
netsplitout="${6:-BENCH_netsplit.json}"
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

# emit_json turns a best-of table into the recorded JSON document.
emit_json() {
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "benchmarks": [\n'
    awk -v field="$2" '
        {
            name = $1
            sub(/^Benchmark/, "", name)
            if (n++) printf ",\n"
            printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"%s\": %s}", name, $2, $3, field, $4
        }
        END { printf "\n" }
    ' "$1"
    printf '  ]\n'
    printf '}\n'
}

: > "$tmp"
rep=0
while [ "$rep" -lt "${BENCHCOUNT:-3}" ]; do
    go test -run '^$' -bench '^Benchmark(BandCurve|Sobol|ModelEvaluate|Evaluator)' -benchmem \
        -benchtime "${BENCHTIME:-2s}" \
        ./internal/core ./internal/mc ./internal/sens | tee -a "$tmp"
    rep=$((rep + 1))
done
best_of "evals/s" < "$tmp" > "$tmpbest"

emit_json "$tmpbest" evals_per_s > "$out"
echo "wrote $out"

guard_status=0
best_field() {
    # $1 = benchmark name (without the Benchmark prefix), $2 = table,
    # $3 = column: 2 ns/op, 3 allocs/op, 4 rate.
    awk -v n="Benchmark$1" -v c="$3" '$1 == n { print $c; exit }' "$2"
}

# Batch-kernel guard: the structure-of-arrays band-curve driver must
# hold at least 2x the pre-batch compiled driver's 1.84M evals/s and
# stay allocation-free in steady state. The allocation check runs the
# walk on one CPU: with more, sweep.ForChunks starts its workers per
# call (a few allocations each time), while on one it runs the chunks
# inline — the steady state TestBandCurveBatchAllocs pins.
batch_evals="$(best_field BandCurveBatch "$tmpbest" 4)"
batch_allocs="$(go test -run '^$' -bench '^BenchmarkBandCurveBatch$' -benchmem -benchtime 2000x -cpu 1 ./internal/mc |
    awk '/^BenchmarkBandCurveBatch/ { for (i = 2; i < NF; i++) if ($(i+1) == "allocs/op") print $i }')"
[ "$batch_evals" = "null" ] && batch_evals=""
if [ -z "$batch_evals" ] || [ -z "$batch_allocs" ]; then
    echo "WARNING: missing BandCurveBatch benchmark" >&2
    guard_status=1
else
    if awk -v e="$batch_evals" 'BEGIN { exit !(e < 3680000) }'; then
        echo "WARNING: BandCurveBatch (${batch_evals} evals/s) below 2x the pre-batch compiled baseline (3.68M)" >&2
        guard_status=1
    else
        echo "ok: BandCurveBatch ${batch_evals} evals/s >= 3.68M (2x pre-batch compiled)"
    fi
    if [ "$batch_allocs" != "0" ]; then
        echo "WARNING: BandCurveBatch allocates (${batch_allocs} allocs/op), want 0" >&2
        guard_status=1
    else
        echo "ok: BandCurveBatch steady state allocation-free"
    fi
fi

# ---- serving-layer load test ---------------------------------------
# Three in-process scenarios: every request a response-cache hit, every
# request a full miss (unique capacity -> decode, resolve, bind the
# request's conditions onto the cached compiled design, evaluate,
# encode), and a 9:1 mix.
go build -o "$tmpbin/ttmcas-loadgen" ./cmd/ttmcas-loadgen

servedur="${SERVE_DURATION:-3s}"
servec="${SERVE_CONCURRENCY:-8}"
cached_json="$("$tmpbin/ttmcas-loadgen" -scenario cached -d "$servedur" -c "$servec" -json)"
uncached_json="$("$tmpbin/ttmcas-loadgen" -scenario uncached -d "$servedur" -c "$servec" -json)"
mixed_json="$("$tmpbin/ttmcas-loadgen" -scenario mixed -d "$servedur" -c "$servec" -json)"

{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "scenarios": [\n'
    printf '    %s,\n' "$cached_json"
    printf '    %s,\n' "$uncached_json"
    printf '    %s\n' "$mixed_json"
    printf '  ]\n'
    printf '}\n'
} > "$serveout"
echo "wrote $serveout"

# The first "rps"/"p99_us" in a scenario line is the aggregate (the
# per-target breakdown comes later in the object).
field() { printf '%s' "$1" | sed -n "s/.*\"$2\":\([0-9.eE+-]*\).*/\1/p" | head -n 1; }
cached_rps="$(field "$cached_json" rps)"
uncached_rps="$(field "$uncached_json" rps)"
cached_p99="$(field "$cached_json" p99_us)"
uncached_p99="$(field "$uncached_json" p99_us)"

if awk -v c="$cached_p99" -v u="$uncached_p99" 'BEGIN { exit !(c >= u) }'; then
    echo "WARNING: cached-hit p99 (${cached_p99}us) is not below uncached p99 (${uncached_p99}us)" >&2
    guard_status=1
else
    echo "ok: cached-hit p99 ${cached_p99}us < uncached p99 ${uncached_p99}us"
fi
# The response cache must pay for itself. The floor follows the
# measured ratio: while every miss compiled its own evaluator, hits ran
# 5.5-8.3x the miss RPS on a 2-vCPU VM; now that a miss binds its
# conditions onto the design's cached compiled evaluator it costs far
# less, and the ratio measured 4.2-4.6x there. 3x leaves room for
# shared-runner noise and still fails if hits stop skipping the work.
if awk -v c="$cached_rps" -v u="$uncached_rps" 'BEGIN { exit !(c < 3 * u) }'; then
    echo "WARNING: cached-hit RPS (${cached_rps}) is below 3x uncached RPS (${uncached_rps})" >&2
    guard_status=1
else
    echo "ok: cached-hit RPS ${cached_rps} >= 3x uncached RPS ${uncached_rps}"
fi

# ---- cluster scaling sweep -----------------------------------------
# The latency-bound cluster scenario at N in {1, 2, 4} in-process
# nodes. RPS should grow near-linearly with N (the per-request 5ms
# floor is sleep, not CPU); the ttm-forward target's p99 is the cost of
# one peer hop.
cluster_rps_1=""
cluster_rps_4=""
{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "scaling": [\n'
    first=1
    for n in 1 2 4; do
        run_json="$("$tmpbin/ttmcas-loadgen" -scenario cluster -nodes "$n" -d "$servedur" -c 4 -json)"
        # "baseline_rps" never matches: the grep needs the quote right
        # before "rps". The aggregate precedes the per-target stats.
        rps="$(printf '%s' "$run_json" | grep -o '"rps":[0-9.eE+-]*' | head -n 1 | cut -d: -f2)"
        fwd_p99="$(printf '%s' "$run_json" | sed -n 's/.*"name":"ttm-forward"[^}]*"p99_us":\([0-9.eE+-]*\).*/\1/p')"
        [ "$n" = 1 ] && cluster_rps_1="$rps"
        [ "$n" = 4 ] && cluster_rps_4="$rps"
        [ "$first" = 1 ] || printf ',\n'
        first=0
        printf '    {"nodes": %s, "rps": %s, "forward_p99_us": %s}' \
            "$n" "${rps:-null}" "${fwd_p99:-null}"
    done
    printf '\n  ]\n'
    printf '}\n'
} > "$clusterout"
echo "wrote $clusterout"

# ---- timeline step sweep -------------------------------------------
# Per-step timeline evaluation of a 3-segment disruption spec at 64 and
# 512 steps, recorded in steps/s.
: > "$tmptl"
rep=0
while [ "$rep" -lt "${BENCHCOUNT:-3}" ]; do
    go test -run '^$' -bench 'Timeline' -benchmem \
        -benchtime "${BENCHTIME:-2s}" ./internal/timeline | tee -a "$tmptl"
    rep=$((rep + 1))
done
best_of "steps/s" < "$tmptl" > "$tmptlbest"

emit_json "$tmptlbest" steps_per_s > "$timelineout"
echo "wrote $timelineout"

# ---- distributed-job sweep -----------------------------------------
# Heavy mc-band batch jobs (paced so each job is latency-bound, like
# the cluster scenario's per-request 5ms floor) run single-node, then
# sharded across a 4-node in-process ring with a mid-run node kill and
# rejoin. Distribution must deliver >= 0.7 x 4 x the single-node
# jobs/s with zero lost jobs, remotely completed shards, and a
# reconverged ring.
distjobs_1="$("$tmpbin/ttmcas-loadgen" -scenario distjobs -nodes 1 -d "$servedur" -c 3 -json)"
distjobs_4="$("$tmpbin/ttmcas-loadgen" -scenario distjobs -nodes 4 -kill -d "$servedur" -c 3 -json)"
{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "runs": [\n'
    printf '    %s,\n' "$distjobs_1"
    printf '    %s\n' "$distjobs_4"
    printf '  ]\n'
    printf '}\n'
} > "$distjobsout"
echo "wrote $distjobsout"

# The distjobs JSON is one compact line per run, so take the first
# occurrence of each key (keys are unambiguous prefixes when quoted).
djfield() { printf '%s' "$1" | grep -o "\"$2\":[0-9.eE+-]*" | head -n 1 | cut -d: -f2; }
djps1="$(djfield "$distjobs_1" jobs_per_sec)"
djps4="$(djfield "$distjobs_4" jobs_per_sec)"
dfail1="$(djfield "$distjobs_1" jobs_failed)"
dfail4="$(djfield "$distjobs_4" jobs_failed)"
dshards4="$(djfield "$distjobs_4" shards_completed)"
dconv4="$(printf '%s' "$distjobs_4" | grep -o '"converged":[a-z]*' | cut -d: -f2)"

if [ -z "$djps1" ] || [ -z "$djps4" ]; then
    echo "WARNING: distjobs sweep produced no jobs/s figures" >&2
    guard_status=1
elif awk -v d="$djps4" -v s="$djps1" 'BEGIN { exit !(d < 0.7 * 4 * s) }'; then
    echo "WARNING: 4-node distributed jobs/s (${djps4}) below 0.7 x 4 x single-node jobs/s (${djps1})" >&2
    guard_status=1
else
    echo "ok: 4-node distributed jobs/s ${djps4} >= 0.7 x 4 x single-node ${djps1}"
fi
if [ "${dfail1:-1}" != "0" ] || [ "${dfail4:-1}" != "0" ]; then
    echo "WARNING: distjobs sweep lost jobs (single-node failed=${dfail1:-?}, 4-node failed=${dfail4:-?})" >&2
    guard_status=1
else
    echo "ok: distjobs sweep lost zero jobs"
fi
if [ -z "$dshards4" ] || [ "$dshards4" = "0" ]; then
    echo "WARNING: 4-node distjobs run completed no remote shards (shards_completed=${dshards4:-?})" >&2
    guard_status=1
else
    echo "ok: 4-node distjobs run completed ${dshards4} shards remotely"
fi
if [ "${dconv4:-}" != "true" ]; then
    echo "WARNING: ring did not reconverge after the distjobs mid-run kill (converged=${dconv4:-?})" >&2
    guard_status=1
else
    echo "ok: ring reconverged after the distjobs mid-run kill"
fi

# ---- netsplit partition sweep --------------------------------------
# A 4-node ring driven through healthy / partitioned / healed phases:
# mid-run every majority node's traffic to the last node is blackholed
# (its own outbound keeps working — the asymmetric case), then the
# partition heals. The run must not cost a single request or job;
# breakers must open during the split and all be closed again at the
# end; the ring must reconverge; and the majority side must hold at
# least half the healthy throughput while the split is open.
netsplit_json="$("$tmpbin/ttmcas-loadgen" -scenario netsplit -nodes 4 -d "$servedur" -c 2 -json)"
{
    printf '{\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
    printf '  "go": "%s",\n' "$(go env GOVERSION)"
    printf '  "runs": [\n'
    printf '    %s\n' "$netsplit_json"
    printf '  ]\n'
    printf '}\n'
} > "$netsplitout"
echo "wrote $netsplitout"

ns_healthy="$(djfield "$netsplit_json" healthy_rps)"
ns_part="$(djfield "$netsplit_json" partitioned_rps)"
ns_jobs="$(djfield "$netsplit_json" jobs_total)"
ns_jobsok="$(djfield "$netsplit_json" jobs_ok)"
ns_opens="$(djfield "$netsplit_json" breaker_opens)"
ns_open_end="$(djfield "$netsplit_json" open_breakers)"
ns_conv="$(printf '%s' "$netsplit_json" | grep -o '"converged":[a-z]*' | cut -d: -f2)"
ns_errs="$(printf '%s' "$netsplit_json" | grep -o '"errors":[0-9]*' | awk -F: '{ s += $2 } END { print s + 0 }')"
ns_5xx="$(printf '%s' "$netsplit_json" | grep -o '"status_5xx":[0-9]*' | awk -F: '{ s += $2 } END { print s + 0 }')"

if [ "${ns_errs:-1}" != "0" ] || [ "${ns_5xx:-1}" != "0" ]; then
    echo "WARNING: netsplit sweep saw client-visible failures (errors=${ns_errs:-?}, 5xx=${ns_5xx:-?})" >&2
    guard_status=1
else
    echo "ok: netsplit sweep lost zero requests across the partition"
fi
if [ -z "$ns_jobs" ] || [ "$ns_jobs" = "0" ] || [ "${ns_jobsok:-}" != "$ns_jobs" ]; then
    echo "WARNING: netsplit sweep lost jobs (ok=${ns_jobsok:-?}/${ns_jobs:-?})" >&2
    guard_status=1
else
    echo "ok: netsplit sweep completed all ${ns_jobs} jobs"
fi
if [ -z "$ns_opens" ] || [ "$ns_opens" = "0" ]; then
    echo "WARNING: no breaker opened during the netsplit partition" >&2
    guard_status=1
elif [ "${ns_open_end:-1}" != "0" ]; then
    echo "WARNING: ${ns_open_end:-?} breakers still open after the netsplit heal" >&2
    guard_status=1
else
    echo "ok: netsplit breakers opened (${ns_opens}) and all re-closed"
fi
if [ "${ns_conv:-}" != "true" ]; then
    echo "WARNING: ring did not reconverge after the netsplit heal (converged=${ns_conv:-?})" >&2
    guard_status=1
else
    echo "ok: ring reconverged after the netsplit heal"
fi
if [ -z "$ns_healthy" ] || [ -z "$ns_part" ]; then
    echo "WARNING: netsplit sweep produced no RPS figures" >&2
    guard_status=1
elif awk -v p="$ns_part" -v h="$ns_healthy" 'BEGIN { exit !(p < 0.5 * h) }'; then
    echo "WARNING: partitioned RPS (${ns_part}) below 0.5 x healthy RPS (${ns_healthy})" >&2
    guard_status=1
else
    echo "ok: partitioned RPS ${ns_part} >= 0.5 x healthy RPS ${ns_healthy}"
fi

if [ -n "$cluster_rps_1" ] && [ -n "$cluster_rps_4" ]; then
    if awk -v r4="$cluster_rps_4" -v r1="$cluster_rps_1" 'BEGIN { exit !(r4 < 0.8 * 4 * r1) }'; then
        echo "WARNING: 4-node cluster RPS (${cluster_rps_4}) below 0.8 x 4 x single-node RPS (${cluster_rps_1})" >&2
        guard_status=1
    else
        echo "ok: 4-node cluster RPS ${cluster_rps_4} >= 0.8 x 4 x single-node RPS ${cluster_rps_1}"
    fi
else
    echo "WARNING: cluster sweep produced no RPS figures" >&2
    guard_status=1
fi

# ---- delta vs committed baselines ----------------------------------
# Informational only (never flips guard_status): % change for every
# benchmark/scenario against the BENCH_*.json committed at HEAD, so
# perf movement is visible in run logs even when every guard passes.
# For ns/op tables negative is faster; for rate tables (RPS, jobs/s)
# positive is faster. A table is skipped when HEAD carries no baseline
# for it (first run, or git unavailable).
kv_ns() { sed -n 's/.*"name": "\([^"]*\)", "ns_per_op": \([0-9.eE+-]*\).*/\1 \2/p'; }
kv_cluster() { sed -n 's/.*{"nodes": \([0-9]*\), "rps": \([0-9.eE+-]*\).*/nodes=\1 \2/p'; }
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
baseline_of() { git show "HEAD:$1" 2>/dev/null || true; }
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

kv_rate rps < "$serveout" > "$tmpkvnew"
baseline_of BENCH_serve.json | kv_rate rps > "$tmpkvold"
delta_section "serving RPS (positive = faster)"

kv_cluster < "$clusterout" > "$tmpkvnew"
baseline_of BENCH_cluster.json | kv_cluster > "$tmpkvold"
delta_section "cluster RPS by node count (positive = faster)"

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
