package sens

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ttmcas/internal/stats"
)

// This file holds the per-row references TotalEffectBatch is held to,
// and the brute-force estimator of the Saltelli-vs-naive ablation.

// saltelliMatrices draws the A and B sample matrices row-major, one
// length-k row per sample: the layout saltelliColumns must transpose
// bit for bit.
func saltelliMatrices(cfg Config, k int) (A, B [][]float64) {
	n := cfg.n()
	v := cfg.variation()
	rng := rand.New(rand.NewSource(cfg.Seed))
	draw := func() float64 { return 1 - v + 2*v*rng.Float64() }
	A = make([][]float64, n)
	B = make([][]float64, n)
	for j := 0; j < n; j++ {
		A[j] = make([]float64, k)
		B[j] = make([]float64, k)
		for i := 0; i < k; i++ {
			A[j][i] = draw()
			B[j][i] = draw()
		}
	}
	return A, B
}

// totalEffectSerial is the per-row serial reference: every evaluation
// on one goroutine, in the f(A_j), f(B_j) then AB_i order, with the
// estimator sums accumulated as it goes.
func totalEffectSerial(names []string, cfg Config, model func(mult []float64) (float64, error)) (Result, error) {
	k := len(names)
	if k == 0 {
		return Result{}, errors.New("sens: no inputs")
	}
	n := cfg.n()
	A, B := saltelliMatrices(cfg, k)
	eval := func(x []float64) (float64, error) {
		y, err := model(x)
		if err != nil {
			return 0, fmt.Errorf("sens: model eval: %w", err)
		}
		return y, nil
	}

	fA := make([]float64, n)
	fB := make([]float64, n)
	for j := 0; j < n; j++ {
		var err error
		if fA[j], err = eval(A[j]); err != nil {
			return Result{}, err
		}
		if fB[j], err = eval(B[j]); err != nil {
			return Result{}, err
		}
	}

	pooled := append(append([]float64(nil), fA...), fB...)
	varY := stats.Variance(pooled)
	res := Result{
		Inputs: append([]string(nil), names...),
		Total:  make([]float64, k),
		First:  make([]float64, k),
		VarY:   varY,
	}
	if varY <= 0 || math.IsNaN(varY) {
		res.Evaluations = 2 * n
		return res, ErrDegenerate
	}

	meanY := stats.Mean(pooled)
	x := make([]float64, k)
	for i := 0; i < k; i++ {
		var sumT, sumS float64
		for j := 0; j < n; j++ {
			copy(x, A[j])
			x[i] = B[j][i]
			fABi, err := eval(x)
			if err != nil {
				return Result{}, err
			}
			dT := fA[j] - fABi
			sumT += dT * dT
			sumS += (fB[j] - meanY) * (fABi - fA[j])
		}
		res.Total[i] = clamp01(sumT / (2 * float64(n) * varY))
		res.First[i] = clamp01(sumS / (float64(n) * varY))
	}
	res.Evaluations = n * (k + 2)
	return res, nil
}

// batchOf adapts a per-row model to the BatchEval shape, reporting the
// lowest-index failing row like the contract requires.
func batchOf(model func([]float64) (float64, error)) BatchEval {
	return func(cols [][]float64, out []float64) error {
		x := make([]float64, len(cols))
		for j := range out {
			for i, col := range cols {
				x[i] = col[j]
			}
			y, err := model(x)
			if err != nil {
				return err
			}
			out[j] = y
		}
		return nil
	}
}

// totalEffectOf runs TotalEffectBatch on a per-row model.
func totalEffectOf(ctx context.Context, names []string, cfg Config, model func([]float64) (float64, error)) (Result, error) {
	return TotalEffectBatch(ctx, names, cfg, func() (BatchEval, error) { return batchOf(model), nil })
}

// naiveTotalEffect estimates S_T with the brute-force double-loop
// estimator (fix X~i, re-draw Xi) at a comparable evaluation budget. It
// converges far more slowly than the Saltelli scheme and exists for the
// estimator ablation. Evaluation is serial; ctx is checked before every
// model call.
func naiveTotalEffect(ctx context.Context, names []string, cfg Config, model func(mult []float64) (float64, error)) (Result, error) {
	k := len(names)
	if k == 0 {
		return Result{}, errors.New("sens: no inputs")
	}
	// Match Saltelli's budget of N(k+2) evaluations: with an inner
	// loop of r re-draws, outer loops get N(k+2)/(k·r).
	const inner = 8
	n := cfg.n()
	outer := n * (k + 2) / (k * inner)
	if outer < 2 {
		outer = 2
	}
	v := cfg.variation()
	rng := rand.New(rand.NewSource(cfg.Seed))
	draw := func() float64 { return 1 - v + 2*v*rng.Float64() }

	res := Result{Inputs: append([]string(nil), names...), Total: make([]float64, k), First: make([]float64, k)}
	var all []float64
	condVar := make([]float64, k)
	for i := 0; i < k; i++ {
		var accum float64
		for o := 0; o < outer; o++ {
			base := make([]float64, k)
			for c := range base {
				base[c] = draw()
			}
			ys := make([]float64, inner)
			for r := 0; r < inner; r++ {
				base[i] = draw()
				if err := ctx.Err(); err != nil {
					return Result{}, err
				}
				y, err := model(base)
				if err != nil {
					return Result{}, err
				}
				ys[r] = y
				all = append(all, y)
				res.Evaluations++
			}
			accum += stats.Variance(ys)
		}
		condVar[i] = accum / float64(outer)
	}
	varY := stats.Variance(all)
	res.VarY = varY
	if varY <= 0 {
		return res, ErrDegenerate
	}
	for i := 0; i < k; i++ {
		res.Total[i] = clamp01(condVar[i] / varY)
	}
	return res, nil
}
