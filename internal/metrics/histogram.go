// Package metrics holds the repository's one latency recorder: a
// log-linear histogram that is safe for concurrent use and records with
// atomic adds, never a lock. The server's /metrics registry keeps one
// per route, one for distributed job shards and (through the cluster)
// one for forward hops, and renders each as a Prometheus summary; the
// load generator keeps one per worker and target and merges them.
package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBucketBits fixes the histogram resolution: 2^subBucketBits
	// linear sub-buckets per power of two, bounding the relative
	// quantile error at 1/2^subBucketBits (~3%).
	subBucketBits = 5
	subBuckets    = 1 << subBucketBits

	// numBuckets covers the full non-negative int64 nanosecond range:
	// the linear region [0, 2*subBuckets) plus subBuckets log-linear
	// buckets per remaining power of two, ~15 KiB of counters.
	numBuckets = (62-subBucketBits)*subBuckets + 2*subBuckets
)

// Histogram is a fixed-bucket latency histogram with log-linear
// buckets — exact below 64 ns, ≤ ~3% relative error above — plus an
// exact count, sum and maximum. The zero value is ready to use. Every
// method is safe for concurrent use: Record is three atomic adds and a
// compare-and-swap loop on the maximum.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	shift := bits.Len64(u) - subBucketBits - 1
	return shift*subBuckets + int(u>>uint(shift))
}

// bucketUpper is the largest value a bucket holds, the conservative
// representative reported for quantiles that land in it.
func bucketUpper(i int) int64 {
	if i < 2*subBuckets {
		return int64(i) // linear region: the bucket is one exact value
	}
	shift := i/subBuckets - 1
	sub := i%subBuckets + subBuckets
	return int64(sub+1)<<uint(shift) - 1
}

// Record adds one observation; negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	v := max(int64(d), 0)
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

// raiseMax lifts the maximum to v unless it already stands at or above.
func (h *Histogram) raiseMax(v int64) {
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Merge folds other into h. Observations recorded into other while the
// merge runs may or may not be included.
func (h *Histogram) Merge(other *Histogram) {
	for i := range other.counts {
		if c := other.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	h.raiseMax(other.max.Load())
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the exact total of the recorded observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max reports the largest recorded observation exactly.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile reports the latency at quantile q in [0, 1]: the upper
// bound of the bucket holding the q-th observation, clamped to the
// exact maximum. An empty histogram reports zero.
//
// The rank is taken against the total of one pass over the buckets,
// not against the count: buckets only grow, so the second pass always
// reaches the rank, however many Records land concurrently.
func (h *Histogram) Quantile(q float64) time.Duration {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	if total == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	rank := max(uint64(q*float64(total)+0.5), 1)
	var seen uint64
	for i := range h.counts {
		if seen += h.counts[i].Load(); seen >= rank {
			return min(time.Duration(bucketUpper(i)), h.Max())
		}
	}
	return h.Max()
}

// summaryQuantiles are the quantiles AppendSummary reports.
var summaryQuantiles = [...]float64{0.5, 0.99, 0.999}

// AppendSummary appends h to b in the Prometheus text exposition
// format, as the samples of summary name in seconds: one line per
// reported quantile, then _count, _sum and _max. labels is the
// pre-rendered label set every line carries (`route="GET /healthz"`),
// or empty.
func (h *Histogram) AppendSummary(b []byte, name, labels string) []byte {
	open, set := "{", ""
	if labels != "" {
		open, set = "{"+labels+",", "{"+labels+"}"
	}
	for _, q := range summaryQuantiles {
		b = fmt.Appendf(b, "%s%squantile=\"%g\"} %g\n", name, open, q, h.Quantile(q).Seconds())
	}
	return fmt.Appendf(b, "%s_count%s %d\n%s_sum%s %g\n%s_max%s %g\n",
		name, set, h.Count(), name, set, h.Sum().Seconds(), name, set, h.Max().Seconds())
}
