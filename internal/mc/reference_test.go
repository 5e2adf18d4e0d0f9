package mc

import (
	"fmt"

	"ttmcas/internal/core"
	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/stats"
)

// This file holds the per-sample reference the batch drivers are held
// to: the perturbation stream materialized row by row, each sample
// evaluated one at a time on core.Model, and the estimates summarized
// with the unsorted stats helpers. It shares nothing with the batch
// path but the stream definition and the estimator formulas.

// fillPerturbations draws len(dst) perturbations from the stream the
// seed selects, row-major: the reference layout fillPerturbationColumns
// must transpose bit for bit.
func fillPerturbations(dst []core.Perturbation, seed int64, v float64) {
	rng := perturbationStream(seed, 0)
	for i := range dst {
		dst[i] = core.Perturbation{
			NTT: rng.draw(v), NUT: rng.draw(v), D0: rng.draw(v),
			Rate: rng.draw(v), FabLatency: rng.draw(v), TAPLatency: rng.draw(v),
		}
	}
}

// refMetric evaluates one sample of the metric on core.Model.
func refMetric(m core.Model, d design.Design, n float64, c market.Conditions, metric Metric) (float64, error) {
	if metric == MetricCAS {
		r, err := m.CAS(d, n, c)
		return r.CAS, err
	}
	t, err := m.TTM(d, n, c)
	return float64(t), err
}

// refSamples evaluates every row of perts serially; wrap formats the
// first failure the way the batch driver under test does.
func refSamples(base core.Model, d design.Design, n float64, c market.Conditions, metric Metric, perts []core.Perturbation, wrap func(j int, err error) error) ([]float64, error) {
	xs := make([]float64, len(perts))
	for j, p := range perts {
		m := base
		m.Perturb = p
		v, err := refMetric(m, d, n, c, metric)
		if err != nil {
			return nil, wrap(j, err)
		}
		xs[j] = v
	}
	return xs, nil
}

// refRun is the per-sample reference of RunBatch.
func refRun(base core.Model, d design.Design, n float64, c market.Conditions, cfg Config, metric Metric) (Estimate, error) {
	perts := make([]core.Perturbation, cfg.samples())
	fillPerturbations(perts, cfg.Seed, cfg.variation())
	xs, err := refSamples(base, d, n, c, metric, perts, func(j int, err error) error {
		return fmt.Errorf("mc: sample %d: %w", j, err)
	})
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Mean: stats.Mean(xs), CI: stats.CI95(xs), Samples: len(xs)}, nil
}

// refBandCurve is the per-sample reference of BandCurveEval: one
// x-position at a time, each with its own ±10% and ±25% streams.
func refBandCurve(base core.Model, cfg Config, d design.Design, n float64, c market.Conditions, xs []float64, metric Metric) ([]Band, error) {
	out := make([]Band, len(xs))
	perts := make([]core.Perturbation, cfg.samples())
	for i, x := range xs {
		wrap := func(j int, err error) error { return fmt.Errorf("mc: x=%v sample %d: %w", x, j, err) }
		fillPerturbations(perts, cfg.seedAt(i), 0.10)
		ys10, err := refSamples(base, d, n, c.AtCapacity(x), metric, perts, wrap)
		if err != nil {
			return nil, err
		}
		fillPerturbations(perts, cfg.seedAt(i), 0.25)
		ys25, err := refSamples(base, d, n, c.AtCapacity(x), metric, perts, wrap)
		if err != nil {
			return nil, err
		}
		out[i] = Band{X: x, Mean: stats.Mean(ys10), CI10: stats.CI95(ys10), CI25: stats.CI95(ys25)}
	}
	return out, nil
}
