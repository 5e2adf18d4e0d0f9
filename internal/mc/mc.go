// Package mc implements the Monte-Carlo uncertainty quantification of
// Section 5: the six closely-guarded model inputs (defect density,
// wafer production rate, foundry latency, OSAT latency, total
// transistor count, unique transistor count) are perturbed with a
// uniform ±10% (or ±25%) error range, the model is evaluated 1024
// times, and the output is reported as the sample mean with an
// empirical 95% confidence interval — the pink/green error bars and
// shaded bands of Figs. 7, 9, 11 and 12.
package mc

import (
	"context"
	"fmt"
	"sync"

	"ttmcas/internal/core"
	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/stats"
	"ttmcas/internal/sweep"
	"ttmcas/internal/units"
)

// DefaultSamples is the paper's sample count.
const DefaultSamples = 1024

// Config controls a Monte-Carlo run.
type Config struct {
	// Samples is the number of perturbed evaluations; zero means the
	// paper's 1024.
	Samples int
	// Variation is the half-width of the uniform input error range
	// (0.10 for ±10%, 0.25 for ±25%); zero means 0.10.
	Variation float64
	// Seed makes runs reproducible; the zero seed is itself a valid
	// fixed seed (runs are deterministic by default).
	Seed int64
}

func (c Config) samples() int {
	if c.Samples <= 0 {
		return DefaultSamples
	}
	return c.Samples
}

func (c Config) variation() float64 {
	if c.Variation <= 0 {
		return 0.10
	}
	return c.Variation
}

// Estimate is a Monte-Carlo output summary.
type Estimate struct {
	// Mean is the sample mean of the output.
	Mean float64
	// CI is the empirical central 95% interval.
	CI stats.Interval
	// Samples is the number of evaluations aggregated.
	Samples int
}

// fillPerturbationColumns draws samples [pos, pos+n) of the (seed, v)
// stream straight into the batch's six parameter columns (each sized to
// exactly n by the caller): sample i takes six consecutive draws, in
// Perturbation field order. The stream is seekable, so chunked batch
// drivers fill any sub-range without replaying the prefix.
func fillPerturbationColumns(b *core.Batch, n int, seed int64, pos int, v float64) {
	rng := perturbationStream(seed, pos)
	for i := 0; i < n; i++ {
		b.NTT[i] = rng.draw(v)
		b.NUT[i] = rng.draw(v)
		b.D0[i] = rng.draw(v)
		b.Rate[i] = rng.draw(v)
		b.FabLatency[i] = rng.draw(v)
		b.TAPLatency[i] = rng.draw(v)
	}
}

// golden64 is the SplitMix64 golden-gamma increment.
const golden64 = 0x9e3779b97f4a7c15

// splitmix64 is the SplitMix64 output mix: a strong 64-bit bijection
// whose increments of the golden-gamma constant produce statistically
// independent outputs even for adjacent inputs.
func splitmix64(x uint64) uint64 {
	x += golden64
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniformSource is a counter-based splitmix64 uniform stream. Unlike
// math/rand's Source (whose Seed call alone used to dominate the band
// walkers' profile), constructing one is free, and the counter makes it
// O(1)-seekable: draw t from seed s reads splitmix64(s + t·golden64),
// so a chunk can start mid-stream without replaying the prefix.
type uniformSource struct{ state uint64 }

// perturbationStream positions a uniform stream at the first draw of
// sample pos (six draws per sample).
func perturbationStream(seed int64, pos int) uniformSource {
	return uniformSource{state: uint64(seed) + uint64(6*pos)*golden64}
}

// draw returns the next uniform multiplier from [1−v, 1+v).
func (r *uniformSource) draw(v float64) float64 {
	u := float64(splitmix64(r.state)>>11) * 0x1p-53
	r.state += golden64
	return 1 - v + 2*v*u
}

// seedAt derives the RNG seed of x-position pos as the pos-th output of
// a SplitMix64 stream keyed by the config seed. Naive arithmetic
// offsets (seed+pos) would hand adjacent positions correlated
// math/rand sequences; the mix makes each position's six-input stream
// independent of its neighbours while staying a pure function of
// (Seed, pos), which keeps a curve walk bit-for-bit identical however
// its positions are scheduled or sharded.
func (c Config) seedAt(pos int) int64 {
	return int64(splitmix64(splitmix64(uint64(c.Seed)) + uint64(pos)))
}

// TTM estimates the time-to-market distribution of a design.
func TTM(ctx context.Context, base core.Model, d design.Design, n float64, c market.Conditions, cfg Config) (Estimate, error) {
	ev, err := base.Compile(d, n, c)
	if err != nil {
		return Estimate{}, err
	}
	return RunBatch(ctx, ev, cfg, MetricTTM)
}

// CAS estimates the Chip Agility Score distribution of a design.
func CAS(ctx context.Context, base core.Model, d design.Design, n float64, c market.Conditions, cfg Config) (Estimate, error) {
	ev, err := base.Compile(d, n, c)
	if err != nil {
		return Estimate{}, err
	}
	return RunBatch(ctx, ev, cfg, MetricCAS)
}

// Band is one x-position of a mean curve with its ±10% and ±25% CI
// bands, the structure of the paper's shaded plots.
type Band struct {
	X    float64
	Mean float64
	CI10 stats.Interval
	CI25 stats.Interval
}

// Metric selects the model output BandCurveEval sweeps.
type Metric int

const (
	// MetricTTM is time-to-market in weeks.
	MetricTTM Metric = iota
	// MetricCAS is the Chip Agility Score.
	MetricCAS
)

// BandCurveEval evaluates the metric across the global capacity
// fractions xs, attaching both the ±10% and ±25% confidence bands at
// each point: the design × conditions pair is compiled once and the
// curve rides BandCurveBatch. Each band is bit-for-bit what
// core.Model gives sample by sample on the same perturbation streams.
//
// onEval, when non-nil, is told each evaluated batch's sample count
// from worker goroutines (it must be concurrency-safe); jobs use it for
// progress counting. Cancelling ctx stops the curve within one chunk
// per worker.
func BandCurveEval(ctx context.Context, base core.Model, cfg Config, d design.Design, n float64, c market.Conditions, xs []float64, metric Metric, onEval func(n uint64)) ([]Band, error) {
	ev, err := base.Compile(d, n, c)
	if err != nil {
		return nil, err
	}
	out := make([]Band, len(xs))
	if err := BandCurveBatch(ctx, ev, cfg, xs, metric, out, onEval); err != nil {
		return nil, err
	}
	return out, nil
}

// mcWorker is the pooled per-goroutine state of the batch drivers: the
// six perturbation columns, the band curve's capacity column and the
// sample buffers. Workers are reused across calls through mcWorkerPool,
// and the batch entry points are safe to call concurrently on one
// evaluator, so every chunk body evaluates on the caller's evaluator
// and steady-state chunks allocate nothing.
type mcWorker struct {
	b      core.Batch
	global []float64 // the band curve's Global column, one x per sample
	wout   []units.Weeks
	buf10  []float64
	buf25  []float64
	errs   core.BatchErrors
}

var mcWorkerPool sync.Pool

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func getMCWorker(n int) *mcWorker {
	w, _ := mcWorkerPool.Get().(*mcWorker)
	if w == nil {
		w = &mcWorker{}
	}
	w.b.NTT = growFloats(w.b.NTT, n)
	w.b.NUT = growFloats(w.b.NUT, n)
	w.b.D0 = growFloats(w.b.D0, n)
	w.b.Rate = growFloats(w.b.Rate, n)
	w.b.FabLatency = growFloats(w.b.FabLatency, n)
	w.b.TAPLatency = growFloats(w.b.TAPLatency, n)
	w.b.Global = nil
	w.global = growFloats(w.global, n)
	if cap(w.wout) < n {
		w.wout = make([]units.Weeks, n)
	}
	w.wout = w.wout[:n]
	w.buf10 = growFloats(w.buf10, n)
	w.buf25 = growFloats(w.buf25, n)
	return w
}

// bandCall carries one BandCurveBatch invocation's parameters to its
// chunk bodies. Calls are pooled, and fn is bound to run once when the
// object is first created, so re-dispatching a curve allocates neither
// a call frame nor a closure.
type bandCall struct {
	ev     *core.Evaluator
	cfg    Config
	xs     []float64
	pos0   int
	metric Metric
	out    []Band
	onEval func(n uint64)
	fn     func(lo, hi int) error
}

var bandCallPool sync.Pool

// BandCurveBatch is the batched core of BandCurveEval: it walks the
// x-positions of an already-compiled evaluator and writes one Band per
// x-position into out (len(out) must equal len(xs)). Each position's
// ±10% and ±25% streams are drawn column-major into pooled batches,
// with the position's capacity as their Global column, and evaluated
// through EvalBatch/CASBatch; all worker state comes from package
// pools, so steady-state calls allocate nothing.
func BandCurveBatch(ctx context.Context, ev *core.Evaluator, cfg Config, xs []float64, metric Metric, out []Band, onEval func(n uint64)) error {
	return BandCurveBatchAt(ctx, ev, cfg, xs, 0, metric, out, onEval)
}

// BandCurveBatchAt is BandCurveBatch for a contiguous slice of a larger
// curve: xs holds positions [pos0, pos0+len(xs)) of the full walk, and
// each position i derives its streams from seedAt(pos0+i). Because the
// per-position streams are pure functions of (Seed, absolute position),
// a curve split into range shards — possibly computed on different
// machines — concatenates into exactly the bands the unsplit walk
// produces, bit for bit. Distributed job sharding depends on this.
func BandCurveBatchAt(ctx context.Context, ev *core.Evaluator, cfg Config, xs []float64, pos0 int, metric Metric, out []Band, onEval func(n uint64)) error {
	if len(out) != len(xs) {
		return fmt.Errorf("mc: band output length %d != x-position count %d", len(out), len(xs))
	}
	c, _ := bandCallPool.Get().(*bandCall)
	if c == nil {
		c = &bandCall{}
		c.fn = c.run
	}
	c.ev, c.cfg, c.xs, c.pos0, c.metric, c.out, c.onEval = ev, cfg, xs, pos0, metric, out, onEval
	err := sweep.ForChunks(ctx, len(xs), 0, 1, c.fn)
	c.ev, c.xs, c.out, c.onEval = nil, nil, nil, nil
	bandCallPool.Put(c)
	return err
}

func (c *bandCall) run(lo, hi int) error {
	n := c.cfg.samples()
	w := getMCWorker(n)
	defer mcWorkerPool.Put(w)
	w.b.Global = w.global
	for i := lo; i < hi; i++ {
		x := c.xs[i]
		for j := range w.global {
			w.global[j] = x
		}
		seed := c.cfg.seedAt(c.pos0 + i)
		fillPerturbationColumns(&w.b, n, seed, 0, 0.10)
		if err := w.stream(c.ev, c.metric, x, w.buf10, c.onEval); err != nil {
			return err
		}
		fillPerturbationColumns(&w.b, n, seed, 0, 0.25)
		if err := w.stream(c.ev, c.metric, x, w.buf25, c.onEval); err != nil {
			return err
		}
		// Mean before the in-place selection reorders buf10: it sums in
		// stream order, the order the per-sample reference in the tests
		// sums in.
		mean := stats.Mean(w.buf10)
		c.out[i] = Band{
			X:    x,
			Mean: mean,
			CI10: stats.CI95InPlace(w.buf10),
			CI25: stats.CI95InPlace(w.buf25),
		}
	}
	return nil
}

// stream evaluates the batch currently in w.b (at capacity x, its
// Global column) on ev and writes the metric into buf. The first
// per-sample error (lowest index, the one a serial per-sample loop
// would have hit first) is returned wrapped with its position and
// sample index.
func (w *mcWorker) stream(ev *core.Evaluator, metric Metric, x float64, buf []float64, onEval func(n uint64)) error {
	switch metric {
	case MetricCAS:
		if err := ev.CASBatch(&w.b, buf, &w.errs); err != nil {
			return err
		}
	default:
		if err := ev.EvalBatch(&w.b, w.wout, &w.errs); err != nil {
			return err
		}
		for j, t := range w.wout {
			buf[j] = float64(t)
		}
	}
	if onEval != nil {
		onEval(uint64(len(buf)))
	}
	if j, err := w.errs.First(); err != nil {
		return fmt.Errorf("mc: x=%v sample %d: %w", x, j, err)
	}
	return nil
}

// runCall is bandCall's counterpart for RunBatch.
type runCall struct {
	ev     *core.Evaluator
	cfg    Config
	metric Metric
	xs     []float64
	fn     func(lo, hi int) error
}

var runCallPool sync.Pool

// RunBatch estimates the metric under the config's perturbations: each
// of the six inputs drawn independently and uniformly from [1−v, 1+v].
// The sample stream is drawn column-major into pooled batches chunk by
// chunk (the splitmix64 stream is seekable, so chunk [lo,hi) fills its
// columns without replaying the prefix) and evaluated through
// EvalBatch/CASBatch. Results are deterministic for a fixed seed.
func RunBatch(ctx context.Context, ev *core.Evaluator, cfg Config, metric Metric) (Estimate, error) {
	n := cfg.samples()
	xs := make([]float64, n)
	c, _ := runCallPool.Get().(*runCall)
	if c == nil {
		c = &runCall{}
		c.fn = c.run
	}
	c.ev, c.cfg, c.metric, c.xs = ev, cfg, metric, xs
	err := sweep.ForChunks(ctx, n, 0, sweep.DefaultGrain, c.fn)
	c.ev, c.xs = nil, nil
	runCallPool.Put(c)
	if err != nil {
		return Estimate{}, err
	}
	mean := stats.Mean(xs)
	return Estimate{Mean: mean, CI: stats.CI95InPlace(xs), Samples: n}, nil
}

func (c *runCall) run(lo, hi int) error {
	n := hi - lo
	w := getMCWorker(n)
	defer mcWorkerPool.Put(w)
	fillPerturbationColumns(&w.b, n, c.cfg.Seed, lo, c.cfg.variation())
	switch c.metric {
	case MetricCAS:
		if err := c.ev.CASBatch(&w.b, c.xs[lo:hi], &w.errs); err != nil {
			return err
		}
	default:
		if err := c.ev.EvalBatch(&w.b, w.wout, &w.errs); err != nil {
			return err
		}
		for j, t := range w.wout {
			c.xs[lo+j] = float64(t)
		}
	}
	if j, err := w.errs.First(); err != nil {
		return fmt.Errorf("mc: sample %d: %w", lo+j, err)
	}
	return nil
}
