// Package sens implements the variance-based global sensitivity
// analysis of Section 5 / Figure 8: Sobol total-effect indices S_T,
// estimated with the Saltelli sampling scheme and the Jansen estimator.
//
// For a model Y = f(X₁..X_k) with independent inputs, the total-effect
// index of input i is
//
//	S_Ti = E_{X~i}[ Var_{Xi}(Y | X~i) ] / Var(Y)
//
// — the share of output variance that involves input i, including all
// of its interactions. The Saltelli scheme draws two independent N×k
// sample matrices A and B and forms AB_i (A with column i replaced by
// B's); Jansen's estimator is then
//
//	S_Ti ≈ (1/2N) Σ_j ( f(A_j) − f(AB_i,j) )² / Var(Y).
//
// The paper varies its six guarded inputs uniformly within ±10% of
// their estimates and reports S_T per input per process node.
package sens

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ttmcas/internal/stats"
	"ttmcas/internal/sweep"
)

// Config controls an estimation run.
type Config struct {
	// N is the base sample count (total model evaluations are
	// N·(k+2)); zero means 512.
	N int
	// Variation is the uniform half-range of each input multiplier;
	// zero means the paper's ±10%.
	Variation float64
	// Seed fixes the sample stream.
	Seed int64
}

func (c Config) n() int {
	if c.N <= 0 {
		return 512
	}
	return c.N
}

func (c Config) variation() float64 {
	if c.Variation <= 0 {
		return 0.10
	}
	return c.Variation
}

// Result holds per-input indices.
type Result struct {
	// Inputs names the inputs in the order of the index slices.
	Inputs []string
	// Total is the total-effect index S_T per input, clamped to
	// [0, 1] (the raw estimator can stray slightly outside under
	// sampling noise).
	Total []float64
	// First is the first-order index S1 per input (Saltelli/Jansen
	// first-order estimator), useful to detect interaction effects as
	// S_T − S1.
	First []float64
	// VarY is the estimated total output variance.
	VarY float64
	// Evaluations is the number of model evaluations performed.
	Evaluations int
}

// ErrDegenerate is returned when the output variance is (numerically)
// zero, so indices are undefined.
var ErrDegenerate = errors.New("sens: output variance is zero; indices undefined")

// saltelliColumns draws the A and B sample matrices a config generates,
// one length-n column per input: sample j draws A's then B's entry for
// each input in turn. The column shape is what the batch kernel wants:
// an AB_i batch is A's columns with column i swapped for B's — a pointer
// substitution, no copying.
func saltelliColumns(cfg Config, k int) (A, B [][]float64) {
	n := cfg.n()
	v := cfg.variation()
	rng := rand.New(rand.NewSource(cfg.Seed))
	draw := func() float64 { return 1 - v + 2*v*rng.Float64() }
	A = make([][]float64, k)
	B = make([][]float64, k)
	as, bs := make([]float64, k*n), make([]float64, k*n)
	for i := 0; i < k; i++ {
		A[i] = as[i*n : (i+1)*n : (i+1)*n]
		B[i] = bs[i*n : (i+1)*n : (i+1)*n]
	}
	for j := 0; j < n; j++ {
		for i := 0; i < k; i++ {
			A[i][j] = draw()
			B[i][j] = draw()
		}
	}
	return A, B
}

// BatchEval evaluates a whole batch of parameter vectors in one call:
// cols holds one column per input, in the order of the names slice,
// each of length len(out); out receives one model output per row. On a
// per-sample failure the BatchEval must return the error of its
// lowest-index failing row (what a serial per-row loop would have hit
// first), so every chunking of the index space reports the same error.
type BatchEval func(cols [][]float64, out []float64) error

// TotalEffectBatch estimates Sobol first-order and total-effect
// indices for a model over k inputs, each an independent multiplier
// drawn uniformly from [1−v, 1+v]. The factory is called once per chunk
// of evaluations and the returned BatchEval used by that chunk alone,
// so it may own unsynchronized state (a cloned compiled evaluator,
// scratch buffers); it receives one column per input, in the order of
// the names slice.
//
// The run is EvalRange over the flattened index space followed by
// Reduce: the pooled f(A)/f(B) rows [0, 2n) first, then — unless their
// variance is degenerate, which makes the indices undefined — the fused
// AB_i region [2n, (k+2)·n). Results are deterministic for a fixed
// seed and identical, bit for bit, to a sharded EvalRange+Reduce run.
// Cancelling ctx stops the run within one chunk per worker.
func TotalEffectBatch(ctx context.Context, names []string, cfg Config, factory func() (BatchEval, error)) (Result, error) {
	res, _, err := totalEffect(ctx, names, cfg, factory)
	return res, err
}

// totalEffect is TotalEffectBatch also returning the flattened output
// vector Reduce folded, which the bootstrap resamples.
func totalEffect(ctx context.Context, names []string, cfg Config, factory func() (BatchEval, error)) (Result, []float64, error) {
	ys := make([]float64, (len(names)+2)*cfg.n())
	if err := EvalRange(ctx, len(names), cfg, 0, len(ys), ys, factory); err != nil {
		return Result{}, nil, err
	}
	res, err := Reduce(names, cfg, ys)
	return res, ys, err
}

// EvalRange evaluates the contiguous range [lo, hi) of the flattened
// Saltelli index space [0, (k+2)·n): index m < n is pooled row f(A_m),
// n ≤ m < 2n is f(B_{m−n}), and m ≥ 2n is the fused AB region where
// m−2n encodes (input i = (m−2n)/n, row j = (m−2n)%n). out[m−lo]
// receives the model output of index m. The full sample matrices are
// redrawn locally (drawing is ~ns per sample, negligible next to the
// model evaluations), so assembling every range's outputs into one
// (k+2)·n vector and handing it to Reduce reproduces TotalEffectBatch
// bit for bit. This is the sharding surface of distributed jobs: peers
// evaluate disjoint ranges, the coordinator reduces.
//
// A range holding the whole pooled block [0, 2n) evaluates it first
// and, when its variance is degenerate (the indices are undefined),
// leaves the rest of out unevaluated: Reduce then reads only [0, 2n),
// so the result is the same without the wasted AB evaluations.
//
// Error surface: a chunk stops at its first failing row, errors are
// wrapped as "sens: model eval: ...", and the lowest-index error of the
// range wins — so the minimum-index error across disjoint ranges is the
// error the unsplit run would have reported, up to AB-region errors an
// unsplit run skips after a degenerate pooled block.
func EvalRange(ctx context.Context, k int, cfg Config, lo, hi int, out []float64, factory func() (BatchEval, error)) error {
	if k <= 0 {
		return errors.New("sens: no inputs")
	}
	n := cfg.n()
	total := (k + 2) * n
	if lo < 0 || hi > total || lo > hi {
		return fmt.Errorf("sens: range [%d,%d) outside [0,%d]", lo, hi, total)
	}
	if len(out) != hi-lo {
		return fmt.Errorf("sens: output length %d != range length %d", len(out), hi-lo)
	}
	A, B := saltelliColumns(cfg, k)
	if lo == 0 && hi > 2*n {
		if err := evalRange(ctx, A, B, n, 0, 2*n, out[:2*n], factory); err != nil {
			return err
		}
		if degenerate(stats.Variance(out[:2*n])) {
			return nil
		}
		lo, out = 2*n, out[2*n:]
	}
	return evalRange(ctx, A, B, n, lo, hi, out, factory)
}

// evalRange is EvalRange on already-drawn sample columns.
func evalRange(ctx context.Context, A, B [][]float64, n, lo, hi int, out []float64, factory func() (BatchEval, error)) error {
	k := len(A)
	return sweep.ForChunks(ctx, hi-lo, 0, sweep.DefaultGrain, func(clo, chi int) error {
		eval, err := factory()
		if err != nil {
			return err
		}
		cols := make([][]float64, k)
		for m := lo + clo; m < lo+chi; {
			var seg int // global end of the current dense segment
			switch {
			case m < n: // f(A)
				seg = min(n, lo+chi)
				j, cnt := m, seg-m
				for c := range cols {
					cols[c] = A[c][j : j+cnt]
				}
			case m < 2*n: // f(B)
				seg = min(2*n, lo+chi)
				j, cnt := m-n, seg-m
				for c := range cols {
					cols[c] = B[c][j : j+cnt]
				}
			default: // f(AB_i): A's columns with column i swapped to B's
				i, j := (m-2*n)/n, (m-2*n)%n
				seg = min(2*n+(i+1)*n, lo+chi)
				cnt := seg - m
				for c := range cols {
					cols[c] = A[c][j : j+cnt]
				}
				cols[i] = B[i][j : j+cnt]
			}
			if err := eval(cols, out[m-lo:seg-lo]); err != nil {
				return fmt.Errorf("sens: model eval: %w", err)
			}
			m = seg
		}
		return nil
	})
}

// Reduce folds a full flattened output vector ys — length (k+2)·n, the
// concatenation of EvalRange outputs covering the whole index space —
// into the Result TotalEffectBatch computes. The variance, mean, and
// estimator sums run in index order, so the Result is a pure function
// of ys. When the pooled f(A)/f(B) variance is degenerate only [0, 2n)
// is read, and the Result reports Evaluations=2n with ErrDegenerate —
// the work TotalEffectBatch does before it stops, even if a sharded run
// evaluated the AB region anyway.
func Reduce(names []string, cfg Config, ys []float64) (Result, error) {
	k := len(names)
	if k == 0 {
		return Result{}, errors.New("sens: no inputs")
	}
	n := cfg.n()
	if len(ys) != (k+2)*n {
		return Result{}, fmt.Errorf("sens: reduce over %d outputs, want %d", len(ys), (k+2)*n)
	}
	pooled := ys[:2*n]
	fA, fB := pooled[:n], pooled[n:]
	fAB := ys[2*n:]
	varY := stats.Variance(pooled)
	res := Result{
		Inputs: append([]string(nil), names...),
		Total:  make([]float64, k),
		First:  make([]float64, k),
		VarY:   varY,
	}
	if degenerate(varY) {
		res.Evaluations = 2 * n
		return res, ErrDegenerate
	}
	meanY := stats.Mean(pooled)
	for i := 0; i < k; i++ {
		fABi := fAB[i*n : (i+1)*n]
		var sumT, sumS float64
		for j := 0; j < n; j++ {
			dT := fA[j] - fABi[j]
			sumT += dT * dT
			// Saltelli-2010 first-order estimator; centering fB around
			// the pooled mean leaves the expectation intact (E[fABi − fA]
			// = 0) but removes the huge mean-product noise term for
			// models far from zero.
			sumS += (fB[j] - meanY) * (fABi[j] - fA[j])
		}
		res.Total[i] = clamp01(sumT / (2 * float64(n) * varY))
		res.First[i] = clamp01(sumS / (float64(n) * varY))
	}
	res.Evaluations = n * (k + 2)
	return res, nil
}

// degenerate reports whether an output variance leaves the indices
// undefined.
func degenerate(varY float64) bool { return varY <= 0 || math.IsNaN(varY) }

func clamp01(x float64) float64 {
	switch {
	case math.IsNaN(x), x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}
