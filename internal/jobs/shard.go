package jobs

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"ttmcas"
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
//     position range reproduces exactly the unsplit curve's draws.
//   - sensitivity: the flattened Saltelli evaluation order f(A), f(B),
//     f(AB_1), …, f(AB_k) — (k+2)·N evaluations whose raw outputs
//     merge by sens.Reduce into the exact unsplit indices.
//   - sweep: grid cells in node-major order.
//   - timeline: timeline steps.
//
// A single-node job is the one-shard plan [0, space). The other kinds
// (pareto, plan-portfolio) are not shardable; their jobs always run
// locally.

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

	// ys are the sensitivity outputs of a shard computed in this
	// process. They become Outputs words only on the wire (RunShard)
	// and in a checkpoint (Job.noteShard); the merge reads them as they
	// are.
	ys []float64
}

// wire returns r as it travels and is checkpointed, its in-process
// sensitivity outputs packed into Outputs words.
func (r ShardResult) wire() ShardResult {
	if r.ys != nil {
		r.Outputs, r.ys = encodeOutputs(r.ys), nil
	}
	return r
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
		return s.gridCells()
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

// shardUnits converts a shard range to progress units — the currency
// of Tracker.SetTotal, so aggregated distributed progress drives the
// same ETA as a single-node run.
func (s Spec) shardUnits(lo, hi int) uint64 {
	if s.Kind == KindMCBand {
		return uint64((hi - lo) * 2 * s.samples(mc.DefaultSamples))
	}
	return uint64(hi - lo)
}

// prepared is a validated spec of a shardable kind, resolved once per
// process: the design, the conditions, the shard-space size and the
// kind's compiled inputs. A single-node job, the shards a coordinator
// runs itself and the merge all read one value; a peer builds its own
// from the ShardRequest's spec. It is read-only once built, so
// concurrent shards share it.
type prepared struct {
	spec   Spec
	design ttmcas.Design
	cond   ttmcas.Conditions
	n      float64
	space  int
	xs     []float64          // mc-band: the curve's x-positions
	cells  []gridCell         // sweep: the grid in node-major order
	tl     *timeline.Timeline // timeline: the compiled timeline
}

// prepare resolves a validated spec of a shardable kind. Validate has
// vetted every name, so an error here is an internal one — or a kind
// that does not shard.
func (s Spec) prepare() (prepared, error) {
	d, c, err := s.Resolve()
	if err != nil {
		return prepared{}, err
	}
	p := prepared{spec: s, design: d, cond: c, n: s.n()}
	switch s.Kind {
	case KindMCBand:
		p.xs = s.xs()
		p.space = len(p.xs)
	case KindSensitivity:
		p.space = s.shardSpace()
	case KindSweep:
		if p.cells, err = s.grid(); err != nil {
			return prepared{}, err
		}
		p.space = len(p.cells)
	case KindTimeline:
		ts, err := s.timelineSpec()
		if err != nil {
			return prepared{}, err
		}
		// Submission already validated the spec against the manager's
		// limits; compile under a generous ceiling so a manager
		// configured above the defaults is not re-clamped here.
		if p.tl, err = timeline.Compile(ts, timeline.Limits{MaxSteps: 1 << 20}); err != nil {
			return prepared{}, err
		}
		p.space = p.tl.StepCount()
	default:
		return prepared{}, invalidf("kind %q is not shardable", s.Kind)
	}
	return p, nil
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
	p, err := s.prepare()
	if err != nil {
		return ShardResult{}, err
	}
	res, err := p.runShard(ctx, req.Index, req.Lo, req.Hi, onEval)
	return res.wire(), err
}

// runShard evaluates the shard [lo, hi) of the prepared spec, with
// RunShard's error contract: a compute error lands in ShardResult.Err.
// A finished shard's Evals are its range's progress units. Sensitivity
// outputs stay in process (ShardResult.ys).
func (p *prepared) runShard(ctx context.Context, index, lo, hi int, onEval func(uint64)) (ShardResult, error) {
	if lo < 0 || hi > p.space || lo >= hi {
		return ShardResult{}, invalidf("shard range [%d, %d) outside [0, %d)", lo, hi, p.space)
	}
	res := ShardResult{Index: index, Evals: p.spec.shardUnits(lo, hi)}
	var ev *core.Evaluator
	var err error
	switch p.spec.Kind {
	case KindMCBand:
		sel := mc.MetricTTM
		if p.spec.Metric == "cas" {
			sel = mc.MetricCAS
		}
		cfg := mc.Config{Samples: p.spec.samples(mc.DefaultSamples), Seed: p.spec.Seed}
		if ev, err = (core.Model{}).Compile(p.design, p.n, p.cond); err != nil {
			break
		}
		bands := make([]mc.Band, hi-lo)
		if err = mc.BandCurveBatchAt(ctx, ev, cfg, p.xs[lo:hi], lo, sel, bands, onEval); err != nil {
			break
		}
		res.Points = make([]BandPoint, len(bands))
		for i, b := range bands {
			res.Points[i] = BandPoint{
				X: b.X, Mean: finite(b.Mean),
				CI10Lo: finite(b.CI10.Lo), CI10Hi: finite(b.CI10.Hi),
				CI25Lo: finite(b.CI25.Lo), CI25Hi: finite(b.CI25.Hi),
			}
		}
	case KindSensitivity:
		if ev, err = (core.Model{}).Compile(p.design, p.n, p.cond); err != nil {
			break
		}
		// The Saltelli columns feed the kernel's EvalBatch directly
		// (core.Inputs order is the batch column order).
		res.ys = make([]float64, hi-lo)
		err = sens.EvalRange(ctx, len(core.Inputs), p.sensConfig(), lo, hi, res.ys, sens.TTMFactory(ev, onEval))
	case KindSweep:
		eval := sweepCellEval(p.design, p.cond)
		grid, cells := p.cells[lo:hi], make([]SweepCell, hi-lo)
		res.Cells = cells
		// Chunks stop at their first error and ForChunks reports the
		// lowest-range error, so the surfaced error is always the first
		// by global cell index.
		err = sweep.ForChunks(ctx, hi-lo, 0, 1, func(clo, chi int) error {
			for i := clo; i < chi; i++ {
				cell, err := eval(grid[i])
				if err != nil {
					return fmt.Errorf("sweep: item %d: %w", lo+i, err)
				}
				cells[i] = cell
				if onEval != nil {
					onEval(1)
				}
			}
			return nil
		})
	case KindTimeline:
		// The in-flight study (when requested) is conditions-global, not
		// per-step; the merge runs it once.
		res.Steps = make([]timeline.Step, hi-lo)
		err = timeline.EvaluateSteps(ctx, core.Model{}, p.design, p.n, p.tl, lo, hi, res.Steps, timeline.Options{OnStep: onEval})
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			// Cancellation/deadline beats any partial compute error —
			// mirrors sweep.ForChunks precedence.
			return ShardResult{}, cerr
		}
		res.Evals, res.Err = 0, err.Error()
		res.Points, res.ys, res.Cells, res.Steps = nil, nil, nil, nil
	}
	return res, nil
}

func (p *prepared) sensConfig() sens.Config {
	return sens.Config{N: p.spec.samples(512), Variation: p.spec.Variation, Seed: p.spec.Seed}
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

// merge gathers ordered, error-free shard results covering the whole
// shard space into the kind's result document — the one place each is
// built. Every shard drew exactly the values an unsplit run draws over
// its range, so any plan gives the same bits. Sensitivity outputs are
// read in process where they were computed here, and decoded from
// Outputs words where they came from a peer or a checkpoint.
func (p *prepared) merge(ctx context.Context, parts []ShardResult) (any, error) {
	s := p.spec
	switch s.Kind {
	case KindMCBand:
		metric := s.Metric
		if metric == "" {
			metric = "ttm"
		}
		res := BandResult{
			Design: p.design.Name, Metric: metric, Chips: p.n,
			Samples: s.samples(mc.DefaultSamples), Seed: s.Seed,
			Points: concat(parts, func(r ShardResult) []BandPoint { return r.Points }),
		}
		if len(res.Points) != p.space {
			return nil, fmt.Errorf("jobs: merged %d band points, want %d", len(res.Points), p.space)
		}
		return res, nil

	case KindSensitivity:
		// A lone part computed here is the output vector as it is;
		// otherwise the parts' outputs, in process or as words, join in
		// order. Reduce checks that they cover the Saltelli space.
		ys := parts[0].ys
		if len(parts) > 1 || ys == nil {
			ys = make([]float64, 0, p.space)
			for _, part := range parts {
				var err error
				if ys, err = appendOutputs(append(ys, part.ys...), part.Outputs); err != nil {
					return nil, err
				}
			}
		}
		sr, err := sens.Reduce(core.Inputs, p.sensConfig(), ys)
		if err != nil {
			return nil, err
		}
		return SensitivityResult{
			Design: p.design.Name, Chips: p.n,
			Inputs: sr.Inputs, TotalEffect: sr.Total, FirstOrder: sr.First,
			VarY: sr.VarY, Evaluations: sr.Evaluations,
		}, nil

	case KindSweep:
		cells := concat(parts, func(r ShardResult) []SweepCell { return r.Cells })
		if len(cells) != p.space {
			return nil, fmt.Errorf("jobs: merged %d sweep cells, want %d", len(cells), p.space)
		}
		return SweepResult{Design: p.design.Name, Cells: cells}, nil

	case KindTimeline:
		steps := concat(parts, func(r ShardResult) []timeline.Step { return r.Steps })
		return timeline.AssembleResult(ctx, core.Model{}, p.design, p.n, p.tl, steps, timeline.Options{InFlight: s.InFlight})

	default:
		return nil, invalidf("kind %q is not shardable", s.Kind)
	}
}

// concat joins the parts' payloads in shard order; a lone part's slice
// is the result as it is.
func concat[T any](parts []ShardResult, payload func(ShardResult) []T) []T {
	if len(parts) == 1 {
		return payload(parts[0])
	}
	n := 0
	for i := range parts {
		n += len(payload(parts[i]))
	}
	out := make([]T, 0, n)
	for i := range parts {
		out = append(out, payload(parts[i])...)
	}
	return out
}
