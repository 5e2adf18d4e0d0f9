package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"ttmcas/internal/jobs"
)

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees, reported by every
// workload. An operation is one request, or one job workflow (submit,
// polls, result) on the job workloads; p50_us and p99_us time it on the
// serving side for requests and from submit to result fetched for jobs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p99_us", "us", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// jobKinds are the job kinds the workloads run.
var jobKinds = []string{jobs.KindMCBand, jobs.KindSensitivity, jobs.KindSweep, jobs.KindTimeline}

// perLayer are the traced run's metrics, one layer each. A metric of a
// layer a workload does not exercise reads 0. bench/README.md lists the
// end-to-end metric each should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"server.handler_us.p50", "us", "lower"},
		{"server.handler_us.p99", "us", "lower"},
		{"server.self_us.p50", "us", "lower"},
		{"server.decode_us.p50", "us", "lower"},
		{"server.cache_key_us.p50", "us", "lower"},
		{"server.encode_us.p50", "us", "lower"},
		{"server.cache_hit_ratio", "ratio", "higher"},
		{"server.cache_evictions_per_s", "1/s", "lower"},
		{"server.evalcache_hit_ratio", "ratio", "higher"},
		{"server.admission_shed", "count", "lower"},
		{"server.admission_queued_max", "count", "lower"},
		{"core.compile_us.p50", "us", "lower"},
		{"core.eval_us.p50", "us", "lower"},
		{"core.cas_us.p50", "us", "lower"},
		{"jobs.queue_wait_ms.p50", "ms", "lower"},
		{"jobs.queue_wait_ms.p99", "ms", "lower"},
	}
	for _, k := range jobKinds {
		defs = append(defs, metricDef{"jobs.run_ms.p50." + k, "ms", "lower"})
	}
	for _, k := range jobKinds {
		defs = append(defs, metricDef{"jobs.compute_ms.p50." + k, "ms", "lower"})
	}
	return append(defs,
		metricDef{"jobs.evals_per_s", "1/s", "higher"},
		metricDef{"jobs.polls_per_job", "count", "lower"},
		metricDef{"jobs.result_kb", "KiB", "lower"},
		metricDef{"jobs.shards_per_job", "count", "higher"},
		metricDef{"jobs.shards_hedged", "count", "lower"},
		metricDef{"jobs.shards_fallback", "count", "lower"},
		metricDef{"jobs.shard_exec_ms.p50", "ms", "lower"},
		metricDef{"jobs.shard_kb", "KiB", "lower"},
		metricDef{"jobs.dist_overhead_ms.p50", "ms", "lower"},
		metricDef{"cluster.forwarded_ratio", "ratio", "lower"},
		metricDef{"cluster.forward_hop_us.p50", "us", "lower"},
		metricDef{"cluster.forward_hop_us.p99", "us", "lower"},
		metricDef{"cluster.ring_owner_ns.p50", "ns", "lower"},
		metricDef{"cluster.retries", "count", "lower"},
		metricDef{"cluster.forward_errors", "count", "lower"},
		metricDef{"cluster.breaker_opens", "count", "lower"},
		metricDef{"runtime.gc_cpu_fraction", "ratio", "lower"},
		metricDef{"bench.gen_overhead_us.p50", "us", "lower"},
		metricDef{"trace_overhead_pct", "%", "lower"},
	)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome, the last line the benchmark prints.
// Failed counts transport errors, non-2xx responses, failed jobs and
// oracle mismatches; Failed/Attempted is the run's error rate.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(defs []metricDef, vals map[string]float64) result {
	res := result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

func endToEndResult(m measurement, setups []float64) result {
	return newResult(endToEnd, map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       m.t.opsPerS,
		"p50_us":          m.t.p50,
		"p99_us":          m.t.p99,
		"alloc_kb_per_op": float64(m.allocBytes) / 1024 / float64(max(m.t.attempted, 1)),
		"rss_peak_mb":     peakRSSMiB(),
	})
}

func pct(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, q)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is x/(x+y), 0 when both are 0.
func ratio(x, y float64) float64 {
	if x+y == 0 {
		return 0
	}
	return x / (x + y)
}

// perLayerResult derives the per-layer metrics of a traced phase from
// its spans, its job status documents and the /metrics counters around
// it; base is the untraced phase that precedes it.
func perLayerResult(base, traced measurement, spans []span) result {
	v := make(map[string]float64)
	byID := make(map[uint64]span, len(spans))
	byName := make(map[string][]float64)
	for _, s := range spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
	}
	self := selfTimes(spans)
	var handlerSelf, gen, hops, shardExec, shardKB []float64
	for _, s := range spans {
		switch s.Name {
		case "server.handler":
			handlerSelf = append(handlerSelf, float64(self[s.ID]))
			if op, ok := byID[s.Parent]; ok {
				gen = append(gen, float64(op.dur()-s.dur()))
			}
		case "cluster.peer":
			if s.Shard > 0 {
				shardExec = append(shardExec, float64(s.dur()))
				shardKB = append(shardKB, float64(s.Bytes)/1024)
			} else if h, ok := byID[s.Parent]; ok {
				hops = append(hops, float64(h.dur()-s.dur()))
			}
		}
	}
	const us, ms = 1e-3, 1e-6
	v["server.handler_us.p50"] = pct(byName["server.handler"], 0.5) * us
	v["server.handler_us.p99"] = pct(byName["server.handler"], 0.99) * us
	v["server.self_us.p50"] = pct(handlerSelf, 0.5) * us
	v["server.decode_us.p50"] = pct(byName["server.decode"], 0.5) * us
	v["server.cache_key_us.p50"] = pct(byName["server.cache_key"], 0.5) * us
	v["server.encode_us.p50"] = pct(byName["server.encode"], 0.5) * us
	v["core.compile_us.p50"] = pct(byName["core.compile"], 0.5) * us
	v["core.eval_us.p50"] = pct(byName["core.eval"], 0.5) * us
	v["core.cas_us.p50"] = pct(byName["core.cas"], 0.5) * us
	v["cluster.ring_owner_ns.p50"] = pct(byName["cluster.ring_owner"], 0.5)
	v["cluster.forward_hop_us.p50"] = pct(hops, 0.5) * us
	v["cluster.forward_hop_us.p99"] = pct(hops, 0.99) * us
	v["bench.gen_overhead_us.p50"] = pct(gen, 0.5) * us
	v["jobs.shard_exec_ms.p50"] = pct(shardExec, 0.5) * ms
	v["jobs.shard_kb"] = mean(shardKB)

	var waits, polls, resultKB, distOverhead []float64
	run, compute := make(map[string][]float64), make(map[string][]float64)
	for _, r := range traced.jobs {
		waits = append(waits, float64(r.queueWait))
		run[r.kind] = append(run[r.kind], float64(r.run))
		polls = append(polls, float64(r.polls))
		resultKB = append(resultKB, float64(r.result)/1024)
		if r.compute > 0 {
			compute[r.kind] = append(compute[r.kind], float64(r.compute))
			distOverhead = append(distOverhead, float64(r.latency-r.compute))
		}
	}
	v["jobs.queue_wait_ms.p50"] = pct(waits, 0.5) * ms
	v["jobs.queue_wait_ms.p99"] = pct(waits, 0.99) * ms
	for _, k := range jobKinds {
		v["jobs.run_ms.p50."+k] = pct(run[k], 0.5) * ms
		v["jobs.compute_ms.p50."+k] = pct(compute[k], 0.5) * ms
	}
	v["jobs.polls_per_job"] = mean(polls)
	v["jobs.result_kb"] = mean(resultKB)
	v["jobs.dist_overhead_ms.p50"] = pct(distOverhead, 0.5) * ms

	d := func(name string) float64 { return delta(traced.before, traced.after, name) }
	v["server.cache_hit_ratio"] = ratio(d("ttmcas_cache_hits_total"), d("ttmcas_cache_misses_total"))
	v["server.cache_evictions_per_s"] = d("ttmcas_response_cache_evictions_total") / traced.t.elapsed.Seconds()
	v["server.evalcache_hit_ratio"] = ratio(d("ttmcas_evalcache_hits_total"), d("ttmcas_evalcache_misses_total"))
	v["server.admission_shed"] = d("ttmcas_admission_shed_total")
	v["server.admission_queued_max"] = traced.queuedMax
	if finished := d("ttmcas_jobs_finished_total"); finished > 0 {
		v["jobs.shards_per_job"] = d("ttmcas_jobs_shards_dispatched_total") / finished
	}
	v["jobs.evals_per_s"] = d("ttmcas_job_evaluations_total") / traced.t.elapsed.Seconds()
	v["jobs.shards_hedged"] = d("ttmcas_jobs_shards_hedged_total")
	v["jobs.shards_fallback"] = d("ttmcas_jobs_shards_fallback_total")
	v["cluster.forwarded_ratio"] = ratio(d("ttmcas_cluster_forwarded_total"), d("ttmcas_cluster_local_total"))
	v["cluster.retries"] = d("ttmcas_cluster_retries_total")
	v["cluster.forward_errors"] = d("ttmcas_cluster_forward_errors_total")
	v["cluster.breaker_opens"] = d("ttmcas_cluster_breaker_opens_total")
	if traced.cpu > 0 {
		v["runtime.gc_cpu_fraction"] = traced.gcCPU / traced.cpu
	}
	if base.t.opsPerS > 0 {
		v["trace_overhead_pct"] = (1 - traced.t.opsPerS/base.t.opsPerS) * 100
	}
	return newResult(perLayer, v)
}

// writeReport prints a run's metrics, one per line, with the sample
// behind each timing.
func writeReport(out io.Writer, cfg runConfig, w workload, res result, ms []measurement, setups []float64, warmed time.Duration) {
	mode := "measured"
	if cfg.trace {
		mode = "untraced then traced"
	}
	fmt.Fprintf(out, "%s (seed %d, %s %s after %s warmup, %d clients)\n", w.name, cfg.seed, cfg.measure, mode, warmed.Round(time.Millisecond), clients)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	t := ms[len(ms)-1].t
	for _, d := range defs {
		note := ""
		switch d.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(setups))
		case "ops_per_s":
			note = fmt.Sprintf("p%g of %d windows of %s", 100*(1-fastShare), t.windows, phaseWindow)
		case "p50_us", "p99_us":
			if t.tailWindows > 0 {
				note = fmt.Sprintf("p%g of %d client windows of >=1000 samples; %d samples", 100*fastShare, t.tailWindows, t.samples)
			} else {
				note = fmt.Sprintf("over %d samples; highest percentile with 10 beyond it: p%g", t.samples, t.supportedPercent)
			}
		}
		m := res.Metrics[d.name]
		fmt.Fprintf(out, "  %-30s %14.6g %-6s %s\n", d.name, m.Value, m.Unit, note)
	}
	if t.supportedPercent < 99 {
		fmt.Fprintf(out, "  warning: p99 rests on fewer than 10 samples beyond it\n")
	}
}
