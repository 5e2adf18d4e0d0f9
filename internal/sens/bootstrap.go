package sens

import (
	"context"
	"math/rand"

	"ttmcas/internal/stats"
)

// Bootstrap confidence intervals for the Sobol indices: the Saltelli
// estimator is itself a Monte-Carlo estimate, so Fig. 8-style heatmaps
// deserve error bars. The bootstrap resamples the (A_j, B_j, AB_i,j)
// evaluation triples with replacement and re-runs the Jansen and
// first-order estimators on each resample — no extra model
// evaluations, just re-weighting of the ones already paid for.

// BootstrapResult extends Result with per-index 95% CIs.
type BootstrapResult struct {
	Result
	// TotalCI and FirstCI are per-input 95% bootstrap intervals.
	TotalCI []stats.Interval
	FirstCI []stats.Interval
	// Resamples is the bootstrap replication count.
	Resamples int
}

// TotalEffectWithCI runs TotalEffectBatch, then bootstraps 95% CIs
// from the output vector it reduced, with the given replication count
// (zero means 200). The point estimates are exactly TotalEffectBatch's;
// the extra cost is only the resampling arithmetic.
func TotalEffectWithCI(ctx context.Context, names []string, cfg Config, resamples int, factory func() (BatchEval, error)) (BootstrapResult, error) {
	base, ys, err := totalEffect(ctx, names, cfg, factory)
	if err != nil {
		return BootstrapResult{}, err
	}
	if resamples <= 0 {
		resamples = 200
	}
	k, n := len(names), cfg.n()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	totSamples := make([][]float64, k)
	firstSamples := make([][]float64, k)
	for i := range totSamples {
		totSamples[i] = make([]float64, 0, resamples)
		firstSamples[i] = make([]float64, 0, resamples)
	}
	idx := make([]int, n)
	for r := 0; r < resamples; r++ {
		for j := range idx {
			idx[j] = rng.Intn(n)
		}
		tot, first := resampleEstimate(ys, k, n, idx)
		for i := 0; i < k; i++ {
			totSamples[i] = append(totSamples[i], tot[i])
			firstSamples[i] = append(firstSamples[i], first[i])
		}
	}
	out := BootstrapResult{Result: base, Resamples: resamples,
		TotalCI: make([]stats.Interval, k), FirstCI: make([]stats.Interval, k)}
	for i := 0; i < k; i++ {
		out.TotalCI[i] = stats.CI95(totSamples[i])
		out.FirstCI[i] = stats.CI95(firstSamples[i])
	}
	return out, nil
}

// resampleEstimate applies the Jansen total-effect and centered
// first-order estimators to the rows idx of the flattened output vector
// ys (f(A), f(B), then each f(AB_i), n rows apiece, as EvalRange lays
// it out), with the pooled mean and variance taken over the same rows.
func resampleEstimate(ys []float64, k, n int, idx []int) (tot, first []float64) {
	fA, fB := ys[:n], ys[n:2*n]
	s := 0.0
	for _, j := range idx {
		s += fA[j] + fB[j]
	}
	meanY := s / float64(2*len(idx))
	s = 0
	for _, j := range idx {
		da, db := fA[j]-meanY, fB[j]-meanY
		s += da*da + db*db
	}
	varY := s / float64(2*len(idx)-1)
	tot = make([]float64, k)
	first = make([]float64, k)
	if varY <= 0 {
		return tot, first
	}
	m := float64(len(idx))
	for i := 0; i < k; i++ {
		fAB := ys[(2+i)*n : (3+i)*n]
		var sumT, sumS float64
		for _, j := range idx {
			d := fA[j] - fAB[j]
			sumT += d * d
			sumS += (fB[j] - meanY) * (fAB[j] - fA[j])
		}
		tot[i] = clamp01(sumT / (2 * m * varY))
		first[i] = clamp01(sumS / (m * varY))
	}
	return tot, first
}
