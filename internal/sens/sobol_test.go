package sens

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
)

// additiveModel is Y = Σ c_i·x_i with independent uniform inputs: the
// Sobol indices are analytic, S_Ti = S1_i = c_i²·Var(x) / Σ c_j²·Var(x)
// = c_i² / Σ c_j² (all inputs share the same variance).
func additiveModel(coeffs []float64) func([]float64) (float64, error) {
	return func(x []float64) (float64, error) {
		s := 0.0
		for i, c := range coeffs {
			s += c * x[i]
		}
		return s, nil
	}
}

func TestAdditiveModelAnalytic(t *testing.T) {
	coeffs := []float64{1, 2, 4}
	names := []string{"a", "b", "c"}
	res, err := totalEffectOf(context.Background(), names, Config{N: 4096, Seed: 1}, additiveModel(coeffs))
	if err != nil {
		t.Fatal(err)
	}
	den := 1.0 + 4 + 16
	want := []float64{1 / den, 4 / den, 16 / den}
	for i := range want {
		if math.Abs(res.Total[i]-want[i]) > 0.03 {
			t.Errorf("S_T[%s] = %v, want %v", names[i], res.Total[i], want[i])
		}
		if math.Abs(res.First[i]-want[i]) > 0.03 {
			t.Errorf("S1[%s] = %v, want %v", names[i], res.First[i], want[i])
		}
	}
	if res.Evaluations != 4096*(3+2) {
		t.Errorf("evaluations = %d, want N(k+2)", res.Evaluations)
	}
}

func TestInertInputScoresZero(t *testing.T) {
	names := []string{"live", "inert"}
	model := func(x []float64) (float64, error) { return 10 * x[0], nil }
	res, err := totalEffectOf(context.Background(), names, Config{N: 2048, Seed: 2}, model)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total[1] > 0.01 {
		t.Errorf("inert input S_T = %v, want ~0", res.Total[1])
	}
	if res.Total[0] < 0.97 {
		t.Errorf("live input S_T = %v, want ~1", res.Total[0])
	}
}

func TestInteractionShowsInTotalNotFirst(t *testing.T) {
	// Y = x1·x2 (pure interaction around the mean): total-effect
	// indices exceed first-order ones.
	names := []string{"x1", "x2"}
	model := func(x []float64) (float64, error) { return (x[0] - 1) * (x[1] - 1) * 1000, nil }
	res, err := totalEffectOf(context.Background(), names, Config{N: 4096, Seed: 3}, model)
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if res.Total[i] < 0.5 {
			t.Errorf("S_T[%d] = %v, want large (pure interaction)", i, res.Total[i])
		}
		if res.First[i] > 0.2 {
			t.Errorf("S1[%d] = %v, want small (no main effect)", i, res.First[i])
		}
	}
}

func TestIndicesClamped(t *testing.T) {
	// Even for a noisy nonlinear model, indices stay in [0, 1].
	names := []string{"a", "b"}
	model := func(x []float64) (float64, error) {
		return math.Sin(20*x[0]) + math.Exp(3*x[1]), nil
	}
	res, err := totalEffectOf(context.Background(), names, Config{N: 256, Seed: 4}, model)
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if res.Total[i] < 0 || res.Total[i] > 1 || res.First[i] < 0 || res.First[i] > 1 {
			t.Errorf("index outside [0,1]: %+v", res)
		}
	}
}

func TestDegenerateModel(t *testing.T) {
	names := []string{"a"}
	var calls atomic.Int64
	model := func([]float64) (float64, error) { calls.Add(1); return 42, nil }
	cfg := Config{N: 64, Seed: 5}
	_, err := totalEffectOf(context.Background(), names, cfg, model)
	if !errors.Is(err, ErrDegenerate) {
		t.Errorf("constant model should report ErrDegenerate, got %v", err)
	}
	// A range holding the whole pooled block stops after it when its
	// variance is degenerate: only the 2N f(A)/f(B) rows are evaluated.
	ys := make([]float64, 3*64)
	factory := func() (BatchEval, error) { return batchOf(model), nil }
	if err := EvalRange(context.Background(), len(names), cfg, 0, len(ys), ys, factory); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2*2*64 {
		t.Errorf("%d model calls over two degenerate runs, want %d", got, 2*2*64)
	}
}

func TestNoInputs(t *testing.T) {
	if _, err := totalEffectOf(context.Background(), nil, Config{}, func([]float64) (float64, error) { return 0, nil }); err == nil {
		t.Error("zero inputs should error")
	}
	if _, err := naiveTotalEffect(context.Background(), nil, Config{}, func([]float64) (float64, error) { return 0, nil }); err == nil {
		t.Error("zero inputs should error")
	}
}

func TestModelErrorPropagates(t *testing.T) {
	names := []string{"a"}
	boom := errors.New("boom")
	_, err := totalEffectOf(context.Background(), names, Config{N: 16}, func([]float64) (float64, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	_, err = naiveTotalEffect(context.Background(), names, Config{N: 16}, func([]float64) (float64, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Errorf("naive err = %v", err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	names := []string{"a", "b"}
	model := additiveModel([]float64{1, 3})
	r1, err := totalEffectOf(context.Background(), names, Config{N: 512, Seed: 9}, model)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := totalEffectOf(context.Background(), names, Config{N: 512, Seed: 9}, model)
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if r1.Total[i] != r2.Total[i] {
			t.Error("same seed should reproduce indices exactly")
		}
	}
}

func TestNaiveAgreesOnAdditiveModel(t *testing.T) {
	coeffs := []float64{1, 3}
	names := []string{"a", "b"}
	model := additiveModel(coeffs)
	naive, err := naiveTotalEffect(context.Background(), names, Config{N: 4096, Seed: 6}, model)
	if err != nil {
		t.Fatal(err)
	}
	den := 1.0 + 9
	want := []float64{1 / den, 9 / den}
	for i := range want {
		if math.Abs(naive.Total[i]-want[i]) > 0.08 {
			t.Errorf("naive S_T[%s] = %v, want %v", names[i], naive.Total[i], want[i])
		}
	}
}

func TestSaltelliBeatsNaiveAtEqualBudget(t *testing.T) {
	// Estimator ablation: at the same evaluation budget, the Saltelli
	// estimate of an additive model should be at least as accurate as
	// the brute-force double loop (averaged over seeds).
	coeffs := []float64{1, 2, 4}
	names := []string{"a", "b", "c"}
	want := []float64{1.0 / 21, 4.0 / 21, 16.0 / 21}
	model := additiveModel(coeffs)
	var errS, errN float64
	for seed := int64(0); seed < 5; seed++ {
		s, err := totalEffectOf(context.Background(), names, Config{N: 256, Seed: seed}, model)
		if err != nil {
			t.Fatal(err)
		}
		n, err := naiveTotalEffect(context.Background(), names, Config{N: 256, Seed: seed}, model)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			errS += math.Abs(s.Total[i] - want[i])
			errN += math.Abs(n.Total[i] - want[i])
		}
	}
	if errS > errN*1.5 {
		t.Errorf("Saltelli error %v should not be far above naive %v", errS, errN)
	}
}

func TestTotalEffectMatchesSerialBitForBit(t *testing.T) {
	// TotalEffectBatch draws the same samples and sums in the same index
	// order as the per-row serial reference, so the indices must agree
	// exactly, not just statistically.
	names := []string{"a", "b", "c"}
	model := func(x []float64) (float64, error) {
		return x[0] + 2*x[1]*x[1] + math.Sin(3*x[2]), nil
	}
	for _, seed := range []int64{0, 1, 42} {
		cfg := Config{N: 256, Seed: seed}
		par, err := totalEffectOf(context.Background(), names, cfg, model)
		if err != nil {
			t.Fatal(err)
		}
		ser, err := totalEffectSerial(names, cfg, model)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("seed %d", seed), par, ser)
	}
}

func TestSaltelliColumnsTransposeMatrices(t *testing.T) {
	// The column draw must be the row draw transposed, bit for bit, so
	// batch and per-call estimators consume identical samples.
	cfg := Config{N: 37, Variation: 0.25, Seed: 99}
	const k = 6
	A, B := saltelliMatrices(cfg, k)
	Ac, Bc := saltelliColumns(cfg, k)
	for j := 0; j < cfg.n(); j++ {
		for i := 0; i < k; i++ {
			if Ac[i][j] != A[j][i] || Bc[i][j] != B[j][i] {
				t.Fatalf("sample %d input %d: columns (%v, %v) != rows (%v, %v)",
					j, i, Ac[i][j], Bc[i][j], A[j][i], B[j][i])
			}
		}
	}
}

func TestTotalEffectBatchMatchesPerCallBitForBit(t *testing.T) {
	// The shared column adapter on the compiled kernel must be
	// indistinguishable from the per-row serial reference on
	// core.Model: same samples, same estimator order, same bits in
	// every index.
	d := scenario.A11At(technode.N28)
	c := market.Full().WithQueueAll(2)
	ev, err := core.Model{}.Compile(d, 10e6, c)
	if err != nil {
		t.Fatal(err)
	}
	model := ttmModel(d, c)
	for _, seed := range []int64{0, 1, 42} {
		cfg := Config{N: 192, Seed: seed}
		want, err := totalEffectSerial(core.Inputs, cfg, model)
		if err != nil {
			t.Fatal(err)
		}
		var evals atomic.Uint64
		got, err := TotalEffectBatch(context.Background(), core.Inputs, cfg, TTMFactory(ev, func(n uint64) { evals.Add(n) }))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("seed %d", seed), got, want)
		if evals.Load() != uint64(want.Evaluations) {
			t.Errorf("seed %d: onEval counted %d rows, want %d", seed, evals.Load(), want.Evaluations)
		}
	}
}

// ttmModel is the per-row one-shot TTM of 10M chips of d under c, the
// multipliers in core.Inputs order.
func ttmModel(d design.Design, c market.Conditions) func([]float64) (float64, error) {
	return func(mult []float64) (float64, error) {
		m := core.Model{Perturb: core.Perturbation{
			NTT: mult[0], NUT: mult[1], D0: mult[2], Rate: mult[3], FabLatency: mult[4], TAPLatency: mult[5],
		}}
		ttm, err := m.TTM(d, 10e6, c)
		return float64(ttm), err
	}
}

// sameResult compares two estimates bit for bit.
func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if math.Float64bits(got.VarY) != math.Float64bits(want.VarY) || got.Evaluations != want.Evaluations {
		t.Fatalf("%s: VarY/Evaluations (%v, %d) != (%v, %d)", label, got.VarY, got.Evaluations, want.VarY, want.Evaluations)
	}
	for i := range want.Total {
		if math.Float64bits(got.Total[i]) != math.Float64bits(want.Total[i]) ||
			math.Float64bits(got.First[i]) != math.Float64bits(want.First[i]) {
			t.Errorf("%s input %s: (%v, %v) != (%v, %v)",
				label, want.Inputs[i], got.Total[i], got.First[i], want.Total[i], want.First[i])
		}
	}
}

func TestTotalEffectBatchErrorMatchesPerCall(t *testing.T) {
	// A failing model must surface the same wrapped error as the per-row
	// reference: first failing row, "sens: model eval: ..." formatting.
	names := []string{"a", "b"}
	boom := errors.New("boom at row")
	model := func(x []float64) (float64, error) {
		if x[0] > 1.05 {
			return 0, boom
		}
		return x[0] + x[1], nil
	}
	cfg := Config{N: 64, Seed: 5}
	_, wantErr := totalEffectSerial(names, cfg, model)
	if wantErr == nil {
		t.Fatal("per-row reference did not fail; pick a different seed")
	}
	_, gotErr := totalEffectOf(context.Background(), names, cfg, model)
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("batch error %q != per-row error %q", gotErr, wantErr)
	}
	if !errors.Is(gotErr, boom) {
		t.Errorf("batch error %v does not wrap the model error", gotErr)
	}
}

func TestTotalEffectBatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	_, err := TotalEffectBatch(ctx, []string{"a", "b", "c"}, Config{N: 512}, func() (BatchEval, error) {
		return func(cols [][]float64, out []float64) error {
			if evals.Add(int64(len(out))) >= 32 {
				cancel()
			}
			return nil
		}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if total := int64(512 * 5); evals.Load() >= total {
		t.Errorf("all %d evaluations ran despite cancellation", total)
	}
}

func TestTotalEffectCancelled(t *testing.T) {
	// Cancelling once the pooled f(A)/f(B) rows are done stops the AB_i
	// region too.
	ctx, cancel := context.WithCancel(context.Background())
	const n = 4096
	var evals atomic.Int64
	_, err := totalEffectOf(ctx, []string{"a", "b"}, Config{N: n}, func(x []float64) (float64, error) {
		if evals.Add(1) == 2*n+32 {
			cancel()
		}
		return x[0] + x[1], nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if got := evals.Load(); got >= 4*n {
		t.Errorf("%d evaluations ran despite cancellation", got)
	}
}

func TestNaiveTotalEffectCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := naiveTotalEffect(ctx, []string{"a"}, Config{N: 64}, func(x []float64) (float64, error) {
		t.Error("eval ran under a cancelled context")
		return x[0], nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestEvalRangeReduceMatchesBatchBitForBit(t *testing.T) {
	// Disjoint EvalRange shards assembled into one vector and handed to
	// Reduce must reproduce the fused TotalEffectBatch result exactly —
	// the invariant distributed sensitivity jobs depend on.
	names := []string{"a", "b", "c", "d"}
	model := func(x []float64) (float64, error) {
		s := 0.0
		for i, v := range x {
			s += math.Cos(float64(i+1)*v) + 0.5*v*x[(i+2)%len(x)]
		}
		return s, nil
	}
	factory := func() (BatchEval, error) { return batchOf(model), nil }
	for _, seed := range []int64{0, 9} {
		cfg := Config{N: 96, Seed: seed}
		want, err := TotalEffectBatch(context.Background(), names, cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		k, n := len(names), cfg.n()
		total := (k + 2) * n
		ys := make([]float64, total)
		// Uneven cuts that straddle the A/B and AB_i region boundaries.
		cuts := []int{0, n / 3, n + 7, 2*n + 5, 2*n + n + n/2, total}
		for c := 0; c+1 < len(cuts); c++ {
			lo, hi := cuts[c], cuts[c+1]
			if err := EvalRange(context.Background(), k, cfg, lo, hi, ys[lo:hi], factory); err != nil {
				t.Fatalf("range [%d,%d): %v", lo, hi, err)
			}
		}
		got, err := Reduce(names, cfg, ys)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("seed %d: reduced vs fused", seed), got, want)
	}
}
