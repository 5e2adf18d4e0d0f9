package mc

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

func TestDefaults(t *testing.T) {
	var c Config
	if c.samples() != DefaultSamples {
		t.Errorf("default samples = %d", c.samples())
	}
	if c.variation() != 0.10 {
		t.Errorf("default variation = %v", c.variation())
	}
}

func TestPerturbationsDeterministicAndBounded(t *testing.T) {
	const n = 200
	draw := func(seed int64) *core.Batch {
		b := newColumns(n)
		fillPerturbationColumns(b, n, seed, 0, 0.10)
		return b
	}
	a, b := draw(42), draw(42)
	for i := 0; i < n; i++ {
		for c, col := range columnsOf(a) {
			if math.Float64bits(col[i]) != math.Float64bits(columnsOf(b)[c][i]) {
				t.Fatal("same seed must reproduce the same stream")
			}
			if v := col[i]; v < 0.9 || v > 1.1 {
				t.Fatalf("multiplier %v outside ±10%%", v)
			}
		}
	}
	if other := draw(43); other.NTT[0] == a.NTT[0] {
		t.Error("different seeds should differ")
	}
}

// newColumns allocates the six perturbation columns of an n-sample batch.
func newColumns(n int) *core.Batch {
	return &core.Batch{
		NTT: make([]float64, n), NUT: make([]float64, n), D0: make([]float64, n),
		Rate: make([]float64, n), FabLatency: make([]float64, n), TAPLatency: make([]float64, n),
	}
}

// columnsOf lists a batch's perturbation columns in Perturbation field
// order.
func columnsOf(b *core.Batch) [][]float64 {
	return [][]float64{b.NTT, b.NUT, b.D0, b.Rate, b.FabLatency, b.TAPLatency}
}

// sameBands compares two band curves bit for bit.
func sameBands(t *testing.T, label string, got, want []Band) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bands, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		for _, f := range [][2]float64{
			{g.X, w.X}, {g.Mean, w.Mean},
			{g.CI10.Lo, w.CI10.Lo}, {g.CI10.Hi, w.CI10.Hi},
			{g.CI25.Lo, w.CI25.Lo}, {g.CI25.Hi, w.CI25.Hi},
		} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("%s: position %d: %+v != %+v", label, i, g, w)
			}
		}
	}
}

// curveXs returns n capacity fractions from lo in steps of step.
func curveXs(n int, lo, step float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + step*float64(i)
	}
	return xs
}

// reticleBuster is a design no wafer can hold: every sample fails.
func reticleBuster() design.Design {
	return design.Design{
		Name: "reticle-buster",
		Dies: []design.Die{{Name: "huge", Node: technode.N7, NTT: 1e9, NUT: 1e8, AreaOverride: 1e6}},
	}
}

func TestTTMEstimateBracketsNominal(t *testing.T) {
	var m core.Model
	d := scenario.A11At(technode.N28)
	nominal, err := m.TTM(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	est, err := TTM(context.Background(), m, d, 10e6, market.Full(), Config{Samples: 256})
	if err != nil {
		t.Fatal(err)
	}
	if x := float64(nominal); !(est.CI.Lo <= x && x <= est.CI.Hi) {
		t.Errorf("nominal %v outside CI [%v, %v]", float64(nominal), est.CI.Lo, est.CI.Hi)
	}
	if math.Abs(est.Mean-float64(nominal))/float64(nominal) > 0.05 {
		t.Errorf("mean %v far from nominal %v", est.Mean, float64(nominal))
	}
	if est.Samples != 256 {
		t.Errorf("samples = %d", est.Samples)
	}
}

func TestWiderVariationWidensCI(t *testing.T) {
	var m core.Model
	d := scenario.A11At(technode.N7)
	e10, err := TTM(context.Background(), m, d, 10e6, market.Full(), Config{Samples: 256, Variation: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	e25, err := TTM(context.Background(), m, d, 10e6, market.Full(), Config{Samples: 256, Variation: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if e25.CI.Width() <= e10.CI.Width() {
		t.Errorf("±25%% CI (%v) should be wider than ±10%% (%v)", e25.CI.Width(), e10.CI.Width())
	}
}

func TestCASEstimate(t *testing.T) {
	var m core.Model
	d := scenario.A11At(technode.N7)
	est, err := CAS(context.Background(), m, d, 10e6, market.Full(), Config{Samples: 128})
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean <= 0 {
		t.Errorf("CAS mean = %v", est.Mean)
	}
	nominal, err := m.CAS(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	if x := nominal.CAS; !(est.CI.Lo <= x && x <= est.CI.Hi) {
		t.Errorf("nominal CAS %v outside CI [%v, %v]", nominal.CAS, est.CI.Lo, est.CI.Hi)
	}
}

func TestBandCurve(t *testing.T) {
	var m core.Model
	d := scenario.A11At(technode.N7)
	xs := []float64{0.5, 1.0}
	bands, err := BandCurveEval(context.Background(), m, Config{Samples: 64}, d, 10e6, market.Full(), xs, MetricTTM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 2 {
		t.Fatalf("bands = %d", len(bands))
	}
	for _, b := range bands {
		if b.CI25.Width() <= b.CI10.Width() {
			t.Errorf("at x=%v: ±25%% band should be wider", b.X)
		}
		if !(b.CI10.Lo <= b.Mean && b.Mean <= b.CI10.Hi) {
			t.Errorf("at x=%v: mean outside its own band", b.X)
		}
	}
	if bands[0].Mean <= bands[1].Mean {
		t.Error("TTM at 50% capacity should exceed TTM at 100%")
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	// Every sample of the reticle-busting design fails; RunBatch reports
	// the lowest-index failure with the reference's wording.
	var m core.Model
	d := reticleBuster()
	ev, err := m.Compile(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Samples: 200, Seed: 4}
	_, gotErr := RunBatch(context.Background(), ev, cfg, MetricTTM)
	_, wantErr := refRun(m, d, 10e6, market.Full(), cfg, MetricTTM)
	if gotErr == nil || wantErr == nil {
		t.Fatalf("errors: batch %v, reference %v; want both to fail", gotErr, wantErr)
	}
	if gotErr.Error() != wantErr.Error() {
		t.Errorf("batch error %q != reference error %q", gotErr, wantErr)
	}
}

func TestBandCurveMatchesSerialBitForBit(t *testing.T) {
	// Over ≥16 x-positions with a fixed seed, the parallel curve must
	// equal a serial walk that evaluates one position per call —
	// every mean and every CI bound, not just approximately.
	var m core.Model
	ev, err := m.Compile(scenario.A11At(technode.N28), 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	xs := curveXs(16, 0.25, 0.05)
	cfg := Config{Samples: 48, Seed: 7}
	for _, metric := range []Metric{MetricTTM, MetricCAS} {
		par := make([]Band, len(xs))
		if err := BandCurveBatch(context.Background(), ev, cfg, xs, metric, par, nil); err != nil {
			t.Fatal(err)
		}
		ser := make([]Band, len(xs))
		for i := range xs {
			if err := BandCurveBatchAt(context.Background(), ev, cfg, xs[i:i+1], i, metric, ser[i:i+1], nil); err != nil {
				t.Fatal(err)
			}
		}
		sameBands(t, fmt.Sprintf("metric %v", metric), par, ser)
	}
}

func TestBandCurveEvalMatchesGenericBitForBit(t *testing.T) {
	// BandCurveEval must be indistinguishable from the per-sample
	// reference walking the same perturbation streams: the kernel is
	// bit-for-bit equal to core.Model and the estimator order is
	// shared, so every band must match exactly.
	var m core.Model
	d := scenario.A11At(technode.N28)
	base := market.Full().WithQueueAll(2)
	xs := curveXs(16, 0.25, 0.05)
	cfg := Config{Samples: 48, Seed: 7}
	for _, metric := range []Metric{MetricTTM, MetricCAS} {
		want, err := refBandCurve(m, cfg, d, 10e6, base, xs, metric)
		if err != nil {
			t.Fatal(err)
		}
		var evals, calls atomic.Int64
		got, err := BandCurveEval(context.Background(), m, cfg, d, 10e6, base, xs, metric, func(n uint64) {
			evals.Add(int64(n))
			calls.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		sameBands(t, fmt.Sprintf("metric %v", metric), got, want)
		if want := int64(len(xs) * 2 * 48); evals.Load() != want {
			t.Errorf("metric %v: onEval counted %d evaluations, want %d", metric, evals.Load(), want)
		}
		// Progress arrives once per evaluated batch (two per position),
		// not once per sample.
		if want := int64(len(xs) * 2); calls.Load() != want {
			t.Errorf("metric %v: onEval called %d times, want %d", metric, calls.Load(), want)
		}
	}
}

// cancelMidRun runs a 32-position, 512-sample band curve for each metric,
// cancelling its context from the tenth onEval call (the tenth batch),
// and requires the curve to stop early with context.Canceled.
func cancelMidRun(t *testing.T, curve func(ctx context.Context, xs []float64, metric Metric, onEval func(n uint64)) error) {
	t.Helper()
	xs := curveXs(32, 0.2, 0.025)
	total := int64(len(xs) * 2 * 512)
	for _, metric := range []Metric{MetricTTM, MetricCAS} {
		ctx, cancel := context.WithCancel(context.Background())
		var evals, calls atomic.Int64
		err := curve(ctx, xs, metric, func(n uint64) {
			evals.Add(int64(n))
			if calls.Add(1) == 10 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("metric %v: err = %v, want context.Canceled", metric, err)
		}
		if evals.Load() >= total {
			t.Errorf("metric %v: all %d evals ran despite cancellation", metric, total)
		}
	}
}

func TestBandCurveEvalCancelledMidRun(t *testing.T) {
	var m core.Model
	d := scenario.A11At(technode.N28)
	cancelMidRun(t, func(ctx context.Context, xs []float64, metric Metric, onEval func(n uint64)) error {
		_, err := BandCurveEval(ctx, m, Config{Samples: 512}, d, 10e6, market.Full(), xs, metric, onEval)
		return err
	})
}

func TestBandCurveCancelledMidRun(t *testing.T) {
	// The batch walk over an already-compiled evaluator, as the jobs and
	// cluster shards drive it.
	var m core.Model
	ev, err := m.Compile(scenario.A11At(technode.N28), 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	cancelMidRun(t, func(ctx context.Context, xs []float64, metric Metric, onEval func(n uint64)) error {
		return BandCurveBatch(ctx, ev, Config{Samples: 512}, xs, metric, make([]Band, len(xs)), onEval)
	})
}

func TestRunCancelled(t *testing.T) {
	var m core.Model
	ev, err := m.Compile(scenario.A11At(technode.N28), 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBatch(ctx, ev, Config{Samples: 4096}, MetricTTM); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestColumnFillMatchesRowFillBitForBit(t *testing.T) {
	// The column-major fill must produce exactly the splitmix64 stream of
	// the row-major reference — same seed, same draw order, transposed
	// layout. The offset form seeks perturbationStream straight to
	// sample pos and must equal the tail of the full stream, which is
	// what lets chunked and sharded drivers fill [lo,hi) without
	// replaying the prefix.
	for _, v := range []float64{0.10, 0.25} {
		for _, seed := range []int64{0, 1, 42, -7, math.MaxInt64, math.MinInt64} {
			const n = 97
			rows := make([]core.Perturbation, n)
			fillPerturbations(rows, seed, v)
			for _, pos := range []int{0, 1, 13, n - 1} {
				b := newColumns(n - pos)
				fillPerturbationColumns(b, n-pos, seed, pos, v)
				for i, p := range rows[pos:] {
					got := core.Perturbation{
						NTT: b.NTT[i], NUT: b.NUT[i], D0: b.D0[i],
						Rate: b.Rate[i], FabLatency: b.FabLatency[i], TAPLatency: b.TAPLatency[i],
					}
					if got != p {
						t.Fatalf("seed=%d v=%v pos=%d sample %d: columns %+v != rows %+v", seed, v, pos, i, got, p)
					}
				}
			}
		}
	}
}

func TestRunBatchMatchesRunEvalBitForBit(t *testing.T) {
	// RunBatch (column batches through EvalBatch/CASBatch) must carry the
	// same bits as the per-sample reference walking the same stream one
	// sample at a time: same mean, same CI bounds, for both metrics.
	var m core.Model
	d := scenario.A11At(technode.N7)
	c := market.Full().WithQueueAll(3)
	ev, err := m.Compile(d, 10e6, c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Samples: 300, Seed: 5}
	for _, metric := range []Metric{MetricTTM, MetricCAS} {
		want, err := refRun(m, d, 10e6, c, cfg, metric)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunBatch(context.Background(), ev, cfg, metric)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
			math.Float64bits(got.CI.Lo) != math.Float64bits(want.CI.Lo) ||
			math.Float64bits(got.CI.Hi) != math.Float64bits(want.CI.Hi) ||
			got.Samples != want.Samples {
			t.Errorf("metric %v: RunBatch %+v != reference %+v", metric, got, want)
		}
	}
}

func TestBandCurveBatchErrorsMatchPerCall(t *testing.T) {
	// A design whose dies blow past the reticle must surface the same
	// wrapped error text through the batch walker as through the
	// reference: lowest failing sample index first, "mc: x=... sample
	// %d: ..." formatting.
	var m core.Model
	d := reticleBuster()
	ev, err := m.Compile(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Samples: 40, Seed: 3}
	xs := []float64{0.8}
	batchErr := BandCurveBatch(context.Background(), ev, cfg, xs, MetricTTM, make([]Band, 1), nil)
	if batchErr == nil {
		t.Fatal("expected the blown-up design to fail")
	}
	_, wantErr := refBandCurve(m, cfg, d, 10e6, market.Full(), xs, MetricTTM)
	if wantErr == nil {
		t.Fatal("reference did not fail; test design needs a bigger blow-up")
	}
	if batchErr.Error() != wantErr.Error() {
		t.Errorf("batch error %q != reference error %q", batchErr, wantErr)
	}
}

func TestBandStreamsDeterministicPerPosition(t *testing.T) {
	// A position's stream seed is distinct across positions and across
	// config seeds (determinism is pinned by the bit-for-bit tests).
	cfg := Config{Samples: 64, Seed: 9}
	if cfg.seedAt(0) == cfg.seedAt(1) {
		t.Error("adjacent positions share a derived seed")
	}
	other := Config{Samples: 64, Seed: 10}
	if cfg.seedAt(0) == other.seedAt(0) {
		t.Error("different config seeds share a derived seed")
	}
}

func TestBandStreamsIndependentAcrossPositions(t *testing.T) {
	// Adjacent x-positions must draw uncorrelated sample streams: with
	// the old arithmetic offsets, math/rand sources seeded with nearby
	// values produce visibly correlated sequences. The smoke bar is a
	// small empirical Pearson correlation between neighbouring
	// positions' Rate draws.
	cfg := Config{Samples: 512, Seed: 1}
	streams := make([][]core.Perturbation, 4)
	for pos := range streams {
		streams[pos] = make([]core.Perturbation, cfg.samples())
		fillPerturbations(streams[pos], cfg.seedAt(pos), 0.10)
	}
	pearson := func(a, b []core.Perturbation) float64 {
		n := float64(len(a))
		var sa, sb, saa, sbb, sab float64
		for i := range a {
			x, y := a[i].Rate, b[i].Rate
			sa += x
			sb += y
			saa += x * x
			sbb += y * y
			sab += x * y
		}
		cov := sab/n - (sa/n)*(sb/n)
		va := saa/n - (sa/n)*(sa/n)
		vb := sbb/n - (sb/n)*(sb/n)
		return cov / math.Sqrt(va*vb)
	}
	for pos := 0; pos+1 < len(streams); pos++ {
		if streams[pos][0] == streams[pos+1][0] {
			t.Errorf("positions %d and %d drew identical first samples", pos, pos+1)
		}
		if r := pearson(streams[pos], streams[pos+1]); math.Abs(r) > 0.15 {
			t.Errorf("positions %d and %d correlate: r = %v", pos, pos+1, r)
		}
	}
}
