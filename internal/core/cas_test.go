package core_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/design"
	"ttmcas/internal/geometry"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
)

func TestCASMatchesClosedForm(t *testing.T) {
	// For a single-node design with no queue, TTM = const + N_W/μ, so
	// |∂TTM/∂μ| = N_W/μ² and CAS = μ²/N_W exactly.
	var m core.Model
	d := simple(technode.N7)
	r, err := m.Evaluate(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	mu := float64(technode.MustLookup(technode.N7).WaferRate)
	want := mu * mu / float64(r.Dies[0].Wafers)
	cas, err := m.CAS(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cas.CAS-want)/want > 0.02 {
		t.Errorf("CAS = %v, closed form %v", cas.CAS, want)
	}
}

func TestCASQueuePenalty(t *testing.T) {
	// With a fixed-wafer-count queue, CAS = μ²/(N_W + N_ahead): agility
	// drops when wafers are queued ahead (Section 6.3).
	var m core.Model
	d := scenario.A11At(technode.N7)
	base, err := m.CAS(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.CAS(d, 10e6, market.Full().WithQueue(technode.N7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if queued.CAS >= base.CAS {
		t.Errorf("queue should reduce CAS: %v -> %v", base.CAS, queued.CAS)
	}
}

func TestCASDecreasesWithCapacity(t *testing.T) {
	// Fig. 9: CAS curves fall as capacity falls (μ² dominates).
	var m core.Model
	d := scenario.A11At(technode.N7)
	pts, err := m.CASCurve(d, 10e6, market.Full(), market.CapacitySweep(0.2, 1.0, 9))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].CAS <= pts[i-1].CAS {
			t.Errorf("CAS not increasing with capacity at %v: %v <= %v",
				pts[i].Capacity, pts[i].CAS, pts[i-1].CAS)
		}
		if pts[i].TTM >= pts[i-1].TTM {
			t.Errorf("TTM not decreasing with capacity at %v", pts[i].Capacity)
		}
	}
}

func TestCASPositive(t *testing.T) {
	var m core.Model
	for _, node := range technode.Producing() {
		r, err := m.CAS(scenario.A11At(node), 10e6, market.Full())
		if err != nil {
			t.Fatalf("%s: %v", node, err)
		}
		if r.CAS <= 0 || math.IsNaN(r.CAS) {
			t.Errorf("CAS(%s) = %v, want positive", node, r.CAS)
		}
		if len(r.Derivatives) != 1 {
			t.Errorf("derivatives = %v", r.Derivatives)
		}
	}
}

func TestCASMultiNodeSumsDerivatives(t *testing.T) {
	// Eq. 8 sums |∂TTM/∂μ| across nodes, so a two-node design's CAS is
	// the inverse of the sum of its per-node derivative magnitudes.
	var m core.Model
	d := scenario.Zen2()
	r, err := m.CAS(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Derivatives) != 2 {
		t.Fatalf("derivatives = %v, want 2 nodes", r.Derivatives)
	}
	sum := 0.0
	for _, v := range r.Derivatives {
		sum += v
	}
	if math.Abs(r.CAS-1/sum)/r.CAS > 1e-9 {
		t.Errorf("CAS %v != 1/Σ %v", r.CAS, 1/sum)
	}
}

func TestCASNonCriticalNodeContributesLess(t *testing.T) {
	// Fig. 13c's explanation: at full capacity the Zen 2 I/O die
	// (14 nm class) finishes fabrication well before the 7 nm compute
	// dies, so small 14 nm rate changes barely move TTM. The packaging
	// phase still depends on every node's throughput in this model, so
	// the derivative is small rather than zero.
	var m core.Model
	r, err := m.CAS(scenario.Zen2(), 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	if r.Derivatives[technode.N12] >= r.Derivatives[technode.N7] {
		t.Errorf("non-critical 12nm derivative %v should be below critical 7nm %v",
			r.Derivatives[technode.N14], r.Derivatives[technode.N7])
	}
}

func TestCASIdleNodeZero(t *testing.T) {
	var m core.Model
	d := design.Design{Dies: []design.Die{{Name: "x", Node: technode.N10, NTT: 1e9, NUT: 1e8}}}
	r, err := m.CAS(d, 1e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	if r.CAS != 0 {
		t.Errorf("CAS on idle node = %v, want 0", r.CAS)
	}
}

func TestCASStepSizeStability(t *testing.T) {
	// Ablation: the finite-difference step must not change the result
	// meaningfully across two orders of magnitude.
	var m core.Model
	d := scenario.A11At(technode.N7)
	ref, err := m.CASWithStep(d, 10e6, market.Full(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{0.001, 0.05, 0.1} {
		got, err := m.CASWithStep(d, 10e6, market.Full(), h)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.CAS-ref.CAS)/ref.CAS > 0.05 {
			t.Errorf("CAS at step %v = %v, deviates from %v", h, got.CAS, ref.CAS)
		}
	}
	// A non-positive step falls back to the default.
	fallback, err := m.CASWithStep(d, 10e6, market.Full(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fallback.CAS-ref.CAS)/ref.CAS > 1e-9 {
		t.Error("zero step should use the default")
	}
}

func TestCASCurveRejectsZeroCapacity(t *testing.T) {
	var m core.Model
	if _, err := m.CASCurve(simple(technode.N7), 1e6, market.Full(), []float64{0}); err == nil {
		t.Error("zero capacity fraction should error")
	}
	// A die too large for the wafer fails at every capacity. The curve
	// reports what a point-by-point walk meets first: the die error at
	// a valid first point, ahead of a later non-positive fraction, and
	// the fraction error when it comes first.
	m.Perturb = core.Perturbation{NTT: 1e6}
	if _, err := m.CASCurve(simple(technode.N7), 1e6, market.Full(), []float64{0.5, 0}); !errors.Is(err, geometry.ErrDieTooLarge) {
		t.Errorf("die error first: got %v", err)
	}
	if _, err := m.CASCurve(simple(technode.N7), 1e6, market.Full(), []float64{-1, 0.5}); err == nil ||
		!strings.Contains(err.Error(), "capacity fraction -1 must be positive") {
		t.Errorf("fraction error first: got %v", err)
	}
}

// TestCASCurveMatchesPerCall holds the batched curve to the per-call
// methods point by point, bit for bit, perturbed and not, stalled
// points included.
func TestCASCurveMatchesPerCall(t *testing.T) {
	fractions := []float64{0.05, 0.3, 0.5, 0.75, 1, 1.2}
	for _, p := range []core.Perturbation{{}, {NTT: 1.05, NUT: 0.95, D0: 1.1, Rate: 0.9, FabLatency: 1.02, TAPLatency: 1.01}} {
		m := core.Model{Perturb: p}
		for dname, d := range registeredDesigns() {
			for _, sc := range market.Scenarios() {
				pts, err := m.CASCurve(d, 10e6, sc.Conditions, fractions)
				ev, cerr := m.Compile(d, 10e6, sc.Conditions)
				if cerr != nil {
					t.Fatal(cerr)
				}
				for i, f := range fractions {
					ctx := fmt.Sprintf("%s/%s f=%v pert %v", dname, sc.Name, f, p)
					wantTTM, wantErr := ev.EvalChipsAtCapacity(p, 10e6, f)
					wantCAS, _ := ev.CASChipsAtCapacity(p, 10e6, f)
					if wantErr != nil {
						if err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("%s: curve error %v, want %v", ctx, err, wantErr)
						}
						break
					}
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					if pts[i].Capacity != f || !sameF64(float64(pts[i].TTM), float64(wantTTM)) || !sameF64(pts[i].CAS, wantCAS) {
						t.Fatalf("%s: point %+v, want TTM %v CAS %v", ctx, pts[i], wantTTM, wantCAS)
					}
				}
			}
		}
	}
}
