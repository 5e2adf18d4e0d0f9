package jobs

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"ttmcas/internal/core"
	"ttmcas/internal/mc"
	"ttmcas/internal/sens"
	"ttmcas/internal/sweep"
	"ttmcas/internal/timeline"
)

// A shard is a contiguous range [Lo, Hi) of a spec's shard space — the
// index set the kind's work naturally splits over:
//
//   - mc-band: x-positions of the curve. Each position derives its
//     perturbation streams from (Seed, absolute position) alone, so any
//     position range reproduces exactly the serial draws.
//   - sensitivity: the flattened Saltelli evaluation order f(A), f(B),
//     f(AB_1), …, f(AB_k) — (k+2)·N evaluations whose raw outputs
//     merge by sens.Reduce into the exact serial indices.
//   - sweep: grid cells in node-major order.
//   - timeline: timeline steps.
//
// The other kinds (pareto, plan-portfolio) are not shardable; their
// jobs always run locally.

// ShardRequest asks a peer to evaluate one shard of a job's spec.
type ShardRequest struct {
	// Job is the coordinator's job ID — informational (logs, tracing);
	// the shard itself is stateless.
	Job string `json:"job"`
	// Index is the shard's position in the coordinator's plan.
	Index int `json:"index"`
	// Lo and Hi bound the shard's half-open range in the spec's shard
	// space.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Spec is the full job spec; the executing node re-derives
	// everything else (grids, streams, evaluators) from it.
	Spec Spec `json:"spec"`
}

// ShardResult is one shard's partial result. Exactly one payload field
// is set, matching the spec's kind. Err carries a deterministic
// compute error (the shard ran and the model failed); transport-level
// failures are reported out of band so the coordinator can retry —
// compute errors must not be retried, they are part of the answer.
type ShardResult struct {
	Index int    `json:"index"`
	Evals uint64 `json:"evals"`
	Err   string `json:"err,omitempty"`
	// Points are mc-band partial curve points.
	Points []BandPoint `json:"points,omitempty"`
	// Outputs are sensitivity raw model outputs, one little-endian
	// IEEE-754 float64 word per output (encoding/json carries the bytes
	// as one base64 string): Sobol intermediates may be ±Inf/NaN, which
	// JSON numbers cannot carry, and the merge must be bit-for-bit.
	Outputs []byte `json:"outputs,omitempty"`
	// Cells are sweep partial grid cells.
	Cells []SweepCell `json:"cells,omitempty"`
	// Steps are timeline partial steps.
	Steps []timeline.Step `json:"steps,omitempty"`
}

// shardSpace is the size of the spec's shard index space, or 0 when
// the kind is not shardable.
func (s Spec) shardSpace() int {
	switch s.Kind {
	case KindMCBand:
		return len(s.xs())
	case KindSensitivity:
		return s.samples(512) * (len(core.Inputs) + 2)
	case KindSweep:
		cells, err := s.grid()
		if err != nil {
			return 0
		}
		return len(cells)
	case KindTimeline:
		ts, err := s.timelineSpec()
		if err != nil {
			return 0
		}
		return ts.StepCount()
	default:
		return 0
	}
}

// shardUnits converts a shard range to progress units — the same
// currency the serial runners feed Tracker.SetTotal, so aggregated
// distributed progress drives the existing ETA unchanged.
func (s Spec) shardUnits(lo, hi int) uint64 {
	if s.Kind == KindMCBand {
		return uint64((hi - lo) * 2 * s.samples(mc.DefaultSamples))
	}
	return uint64(hi - lo)
}

// RunShard evaluates one shard locally. onEval, when set, streams
// completed evaluation units (for coordinator-side progress; remote
// executors leave it nil and report the total in Evals).
//
// A non-nil error return means the shard did not produce an answer —
// an invalid request, or the context ended. A deterministic compute
// error is NOT an error return: it lands in ShardResult.Err, because
// it is the same answer every node would produce and the coordinator
// must surface it rather than retry it.
func RunShard(ctx context.Context, lim Limits, req ShardRequest, onEval func(uint64)) (ShardResult, error) {
	s := req.Spec.normalized()
	if err := s.Validate(lim); err != nil {
		return ShardResult{}, err
	}
	space := s.shardSpace()
	if space == 0 {
		return ShardResult{}, invalidf("kind %q is not shardable", s.Kind)
	}
	if req.Lo < 0 || req.Hi > space || req.Lo >= req.Hi {
		return ShardResult{}, invalidf("shard range [%d, %d) outside [0, %d)", req.Lo, req.Hi, space)
	}
	var evals atomic.Uint64
	count := func(n uint64) {
		evals.Add(n)
		if onEval != nil {
			onEval(n)
		}
	}
	res := ShardResult{Index: req.Index}
	var err error
	switch s.Kind {
	case KindMCBand:
		res.Points, err = s.runMCBandShard(ctx, req.Lo, req.Hi, count)
	case KindSensitivity:
		res.Outputs, err = s.runSensitivityShard(ctx, req.Lo, req.Hi, count)
	case KindSweep:
		res.Cells, err = s.runSweepShard(ctx, req.Lo, req.Hi, count)
	case KindTimeline:
		res.Steps, err = s.runTimelineShard(ctx, req.Lo, req.Hi, count)
	}
	res.Evals = evals.Load()
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			// Cancellation/deadline beats any partial compute error —
			// mirrors sweep.ForChunks precedence.
			return ShardResult{}, cerr
		}
		res.Err = err.Error()
		res.Points, res.Outputs, res.Cells, res.Steps = nil, nil, nil, nil
	}
	return res, nil
}

func (s Spec) runMCBandShard(ctx context.Context, lo, hi int, count func(uint64)) ([]BandPoint, error) {
	d, c, err := s.resolveEval()
	if err != nil {
		return nil, err
	}
	sel := mc.MetricTTM
	if s.Metric == "cas" {
		sel = mc.MetricCAS
	}
	cfg := mc.Config{Samples: s.samples(mc.DefaultSamples), Seed: s.Seed}
	ev, err := core.Model{}.Compile(d, s.n(), c)
	if err != nil {
		return nil, err
	}
	xs := s.xs()
	bands := make([]mc.Band, hi-lo)
	if err := mc.BandCurveBatchAt(ctx, ev, cfg, xs[lo:hi], lo, sel, bands, count); err != nil {
		return nil, err
	}
	pts := make([]BandPoint, 0, len(bands))
	for _, b := range bands {
		pts = append(pts, BandPoint{
			X: b.X, Mean: finite(b.Mean),
			CI10Lo: finite(b.CI10.Lo), CI10Hi: finite(b.CI10.Hi),
			CI25Lo: finite(b.CI25.Lo), CI25Hi: finite(b.CI25.Hi),
		})
	}
	return pts, nil
}

func (s Spec) runSensitivityShard(ctx context.Context, lo, hi int, count func(uint64)) ([]byte, error) {
	d, c, err := s.resolveEval()
	if err != nil {
		return nil, err
	}
	cfg := sens.Config{N: s.samples(512), Variation: s.Variation, Seed: s.Seed}
	ev, err := core.Model{}.Compile(d, s.n(), c)
	if err != nil {
		return nil, err
	}
	ys := make([]float64, hi-lo)
	if err := sens.EvalRange(ctx, len(core.Inputs), cfg, lo, hi, ys, sens.TTMFactory(ev, count)); err != nil {
		return nil, err
	}
	return encodeOutputs(ys), nil
}

// encodeOutputs packs sensitivity outputs into ShardResult.Outputs
// words.
func encodeOutputs(ys []float64) []byte {
	b := make([]byte, 8*len(ys))
	for i, y := range ys {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(y))
	}
	return b
}

// appendOutputs appends the outputs packed in b by encodeOutputs to ys.
func appendOutputs(ys []float64, b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("jobs: sensitivity outputs of %d bytes are not whole float64 words", len(b))
	}
	for i := 0; i < len(b); i += 8 {
		ys = append(ys, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
	}
	return ys, nil
}

func (s Spec) runSweepShard(ctx context.Context, lo, hi int, count func(uint64)) ([]SweepCell, error) {
	d, c, err := s.resolveEval()
	if err != nil {
		return nil, err
	}
	cells, err := s.grid()
	if err != nil {
		return nil, err
	}
	eval := sweepCellEval(d, c)
	out := make([]SweepCell, hi-lo)
	// Chunks stop at their first error and ForChunks reports the
	// lowest-range error, so — like sweep.Map in the serial runner —
	// the surfaced error is always the first by global cell index, with
	// the identical "sweep: item %d" wrapping.
	err = sweep.ForChunks(ctx, hi-lo, 0, 1, func(clo, chi int) error {
		for i := clo; i < chi; i++ {
			cell, err := eval(cells[lo+i])
			if err != nil {
				return fmt.Errorf("sweep: item %d: %w", lo+i, err)
			}
			out[i] = cell
			count(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s Spec) runTimelineShard(ctx context.Context, lo, hi int, count func(uint64)) ([]timeline.Step, error) {
	d, _, err := s.resolveEval()
	if err != nil {
		return nil, err
	}
	ts, err := s.timelineSpec()
	if err != nil {
		return nil, err
	}
	tl, err := timeline.Compile(ts, timeline.Limits{MaxSteps: 1 << 20})
	if err != nil {
		return nil, err
	}
	out := make([]timeline.Step, hi-lo)
	// The in-flight study (when requested) is conditions-global, not
	// per-step; the coordinator runs it once at merge time.
	opt := timeline.Options{OnStep: count}
	if err := timeline.EvaluateSteps(ctx, core.Model{}, d, s.n(), tl, lo, hi, out, opt); err != nil {
		return nil, err
	}
	return out, nil
}
