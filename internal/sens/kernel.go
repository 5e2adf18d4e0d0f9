package sens

import (
	"ttmcas/internal/core"
	"ttmcas/internal/units"
)

// TTMFactory adapts a compiled evaluator to the BatchEval factory shape
// for the inputs core.Inputs names, in that order (they are the batch's
// six perturbation columns). Each call binds the Saltelli columns of its
// chunk as batch inputs and writes TTM per row; every chunk evaluates on
// ev itself, whose batch entry points are safe for concurrent use.
// onEval, when non-nil, is told each batch's row count before the
// batch's first per-row error surfaces, so progress matches what was
// actually evaluated.
func TTMFactory(ev *core.Evaluator, onEval func(n uint64)) func() (BatchEval, error) {
	return func() (BatchEval, error) {
		var (
			b    core.Batch
			wout []units.Weeks
			errs core.BatchErrors
		)
		return func(cols [][]float64, out []float64) error {
			b.NTT, b.NUT, b.D0, b.Rate, b.FabLatency, b.TAPLatency = cols[0], cols[1], cols[2], cols[3], cols[4], cols[5]
			if cap(wout) < len(out) {
				wout = make([]units.Weeks, len(out))
			}
			ws := wout[:len(out)]
			if err := ev.EvalBatch(&b, ws, &errs); err != nil {
				return err
			}
			if onEval != nil {
				onEval(uint64(len(out)))
			}
			for j, t := range ws {
				out[j] = float64(t)
			}
			_, err := errs.First()
			return err
		}, nil
	}
}
