package main

import (
	"bufio"
	"bytes"
	"net/http"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of sorted xs, interpolating linearly
// between order statistics; 0 for no data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, or 0 when even the median does not.
// A timing is reported at that percentile and no higher.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of
// xs the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method); a single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// metricsDoc is a /metrics document summed over a stack's nodes: each
// series name (labels included) maps to its value.
type metricsDoc map[string]float64

// parseMetrics adds the samples of a Prometheus text document to doc.
func parseMetrics(doc metricsDoc, text []byte) {
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		doc[line[:i]] += v
	}
}

// sum totals every series of the metric name, whatever its labels.
func (doc metricsDoc) sum(name string) float64 {
	var t float64
	for series, v := range doc {
		if series == name || strings.HasPrefix(series, name+"{") {
			t += v
		}
	}
	return t
}

// delta is after − before for a metric, summed over its series.
func delta(before, after metricsDoc, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// scrape reads /metrics from every node of the stack, as an operator's
// scraper would.
func (st *stack) scrape(c *caller) metricsDoc {
	doc := make(metricsDoc)
	for _, n := range st.nodes {
		if code, body := c.call(n.h, http.MethodGet, "/metrics", nil); code == http.StatusOK {
			parseMetrics(doc, body)
		}
	}
	return doc
}

// cachesFull reports whether every node's response cache holds at least
// 98% of its byte budget. Each shard evicts down to its share of the
// budget, so a full cache sits just below it.
func (st *stack) cachesFull(c *caller) bool {
	for _, n := range st.nodes {
		code, body := c.call(n.h, http.MethodGet, "/metrics", nil)
		if code != http.StatusOK {
			return false
		}
		doc := make(metricsDoc)
		parseMetrics(doc, body)
		if doc.sum("ttmcas_response_cache_bytes") < 0.98*doc.sum("ttmcas_response_cache_budget_bytes") {
			return false
		}
	}
	return true
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds reads the runtime's estimate of CPU time spent in garbage
// collection and in total.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}
