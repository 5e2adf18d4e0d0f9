package sens

import (
	"context"
	"errors"
	"testing"
)

func TestBootstrapCoversPointEstimate(t *testing.T) {
	coeffs := []float64{1, 2, 4}
	names := []string{"a", "b", "c"}
	res, err := withCI(names, Config{N: 1024, Seed: 5}, 200, additiveModel(coeffs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Resamples != 200 {
		t.Errorf("resamples = %d", res.Resamples)
	}
	den := 1.0 + 4 + 16
	want := []float64{1 / den, 4 / den, 16 / den}
	for i := range names {
		ci := res.TotalCI[i]
		if !(ci.Lo <= res.Total[i] && res.Total[i] <= ci.Hi) {
			t.Errorf("S_T[%s] = %v outside its own CI %v", names[i], res.Total[i], res.TotalCI[i])
		}
		if !(ci.Lo <= want[i] && want[i] <= ci.Hi) {
			t.Errorf("analytic S_T[%s] = %v outside CI [%v, %v]", names[i], want[i], res.TotalCI[i].Lo, res.TotalCI[i].Hi)
		}
		if res.TotalCI[i].Width() <= 0 || res.TotalCI[i].Width() > 0.3 {
			t.Errorf("S_T[%s] CI width = %v implausible", names[i], res.TotalCI[i].Width())
		}
		if fci := res.FirstCI[i]; !(fci.Lo <= res.First[i] && res.First[i] <= fci.Hi) {
			t.Errorf("S1[%s] outside its CI", names[i])
		}
	}
}

func TestBootstrapMatchesPlainEstimator(t *testing.T) {
	// The bootstrap reads the output vector TotalEffectBatch reduces, so
	// its point estimates are TotalEffectBatch's, bit for bit.
	coeffs := []float64{1, 3}
	names := []string{"a", "b"}
	model := additiveModel(coeffs)
	plain, err := totalEffectOf(context.Background(), names, Config{N: 512, Seed: 9}, model)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := withCI(names, Config{N: 512, Seed: 9}, 10, model)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "bootstrap", boot.Result, plain)
}

// withCI runs TotalEffectWithCI on a per-row model.
func withCI(names []string, cfg Config, resamples int, model func([]float64) (float64, error)) (BootstrapResult, error) {
	return TotalEffectWithCI(context.Background(), names, cfg, resamples, func() (BatchEval, error) { return batchOf(model), nil })
}

func TestBootstrapShrinksWithSamples(t *testing.T) {
	names := []string{"a", "b"}
	model := additiveModel([]float64{1, 2})
	small, err := withCI(names, Config{N: 128, Seed: 3}, 200, model)
	if err != nil {
		t.Fatal(err)
	}
	big, err := withCI(names, Config{N: 2048, Seed: 3}, 200, model)
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if big.TotalCI[i].Width() >= small.TotalCI[i].Width() {
			t.Errorf("S_T[%s]: CI should shrink with N: %v vs %v",
				names[i], big.TotalCI[i].Width(), small.TotalCI[i].Width())
		}
	}
}

func TestBootstrapErrors(t *testing.T) {
	if _, err := withCI(nil, Config{}, 10, func([]float64) (float64, error) { return 0, nil }); err == nil {
		t.Error("no inputs should error")
	}
	boom := errors.New("boom")
	_, err := withCI([]string{"a"}, Config{N: 8}, 10, func([]float64) (float64, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	// Default resample count kicks in for non-positive values.
	res, err := withCI([]string{"a"}, Config{N: 32}, 0, additiveModel([]float64{2}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Resamples != 200 {
		t.Errorf("default resamples = %d", res.Resamples)
	}
}
