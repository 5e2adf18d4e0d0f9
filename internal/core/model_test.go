package core_test

import (
	"math"
	"testing"
	"testing/quick"

	"ttmcas/internal/core"
	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
	"ttmcas/internal/yield"
)

func simple(node technode.Node) design.Design {
	return design.Design{
		Name: "simple",
		Dies: []design.Die{{Name: "die", Node: node, NTT: 1e9, NUT: 100e6}},
	}
}

func TestEvaluateBreakdownSums(t *testing.T) {
	var m core.Model
	d := simple(technode.N28)
	d.DesignTime = 10
	r, err := m.Evaluate(d, 1e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	sum := r.DesignTime + r.Tapeout + r.Fabrication + r.Packaging
	if math.Abs(float64(sum-r.TTM)) > 1e-9 {
		t.Errorf("phases sum to %v, TTM = %v", float64(sum), float64(r.TTM))
	}
	if r.DesignTime != 10 {
		t.Errorf("design time = %v", float64(r.DesignTime))
	}
	if len(r.Dies) != 1 || len(r.Nodes) != 1 || r.CriticalNode != technode.N28 {
		t.Errorf("die detail = %+v", r)
	}
}

func TestTapeoutHours(t *testing.T) {
	// Eq. 2: 100e6 unique transistors × 41 h/MTr at 28 nm = 4100 hours
	// → 1.025 weeks for a 100-engineer team.
	var m core.Model
	r, err := m.Evaluate(simple(technode.N28), 1, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(r.TapeoutHours)-4100) > 1e-6 {
		t.Errorf("tapeout hours = %v, want 4100", float64(r.TapeoutHours))
	}
	if math.Abs(float64(r.Tapeout)-1.025) > 1e-9 {
		t.Errorf("tapeout weeks = %v, want 1.025", float64(r.Tapeout))
	}
}

func TestFabSynchronizationMax(t *testing.T) {
	// A two-die design's fabrication phase is bounded by the slower
	// die (Eq. 3), not the sum.
	var m core.Model
	two := design.Design{
		Name: "two",
		Dies: []design.Die{
			{Name: "fast", Node: technode.N7, NTT: 1e9, NUT: 1e6},
			{Name: "slow", Node: technode.N5, NTT: 1e9, NUT: 1e6},
		},
	}
	r, err := m.Evaluate(two, 1e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	want := math.Max(float64(r.Nodes[0].FabTotal), float64(r.Nodes[1].FabTotal))
	if math.Abs(float64(r.Fabrication)-want) > 1e-9 {
		t.Errorf("fab = %v, want max %v", float64(r.Fabrication), want)
	}
	if r.CriticalNode != technode.N5 {
		t.Errorf("critical node = %v, want 5nm (20-week latency)", r.CriticalNode)
	}
}

func TestTTMMonotoneInVolumeAndCapacity(t *testing.T) {
	// Properties: TTM is non-decreasing in chip count and
	// non-increasing in capacity fraction.
	var m core.Model
	d := scenario.A11At(technode.N28)
	f := func(rawN uint32, rawF uint8) bool {
		n := float64(rawN%100_000_000 + 1)
		frac := 0.05 + 0.95*float64(rawF)/255
		base, err := m.TTM(d, n, market.Full().AtCapacity(frac))
		if err != nil {
			return false
		}
		moreChips, err := m.TTM(d, n*2, market.Full().AtCapacity(frac))
		if err != nil {
			return false
		}
		if moreChips < base {
			return false
		}
		moreCap, err := m.TTM(d, n, market.Full().AtCapacity(math.Min(1, frac*1.5)))
		if err != nil {
			return false
		}
		return moreCap <= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQueueScalesInverselyWithCapacity(t *testing.T) {
	// Eq. 4: the queue ahead is a wafer count fixed at quote time, so
	// its wait is N_ahead/(f·μ_W) and scales as 1/f in the global
	// capacity fraction f. A node out of production queues forever at
	// every f.
	var m core.Model
	c := market.Full().WithQueueAll(4)
	for name, d := range registeredDesigns() {
		full, err := m.Evaluate(d, 10e6, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range []float64{0.25, 0.5, 1} {
			r, err := m.Evaluate(d, 10e6, c.AtCapacity(f))
			if err != nil {
				t.Fatalf("%s f=%v: %v", name, f, err)
			}
			for i, nf := range r.Nodes {
				got, want := float64(nf.Queue)*f, float64(full.Nodes[i].Queue)
				if got == want {
					continue
				}
				if math.IsInf(want, 0) || math.Abs(got-want) > 1e-15*math.Abs(want) {
					t.Errorf("%s f=%v node %s: queue·f = %v, full-capacity queue %v", name, f, nf.Node, got, want)
				}
			}
		}
	}
}

func TestQueueAddsLeadTime(t *testing.T) {
	var m core.Model
	d := simple(technode.N7)
	base, err := m.TTM(d, 1e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.TTM(d, 1e6, market.Full().WithQueue(technode.N7, 2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(queued-base)-2) > 1e-9 {
		t.Errorf("2-week queue at full capacity should add exactly 2 weeks, added %v", float64(queued-base))
	}
	// At half capacity the same quoted queue takes twice as long.
	baseHalf, _ := m.TTM(d, 1e6, market.Full().AtCapacity(0.5))
	queuedHalf, _ := m.TTM(d, 1e6, market.Full().AtCapacity(0.5).WithQueue(technode.N7, 2))
	if math.Abs(float64(queuedHalf-baseHalf)-4) > 1e-9 {
		t.Errorf("2-week queue at 50%% capacity should add 4 weeks, added %v", float64(queuedHalf-baseHalf))
	}
}

func TestIdleNodeGivesInfiniteTTM(t *testing.T) {
	var m core.Model
	got, err := m.TTM(simple(technode.N20), 1e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(got), 1) {
		t.Errorf("TTM at idle 20nm = %v, want +Inf", float64(got))
	}
}

func TestOversizedDieErrors(t *testing.T) {
	var m core.Model
	big := design.Design{Dies: []design.Die{{Name: "huge", Node: technode.N250, NTT: 500e9}}}
	if _, err := m.Evaluate(big, 1, market.Full()); err == nil {
		t.Error("wafer-sized die should error")
	}
}

func TestInvalidInputs(t *testing.T) {
	var m core.Model
	if _, err := m.Evaluate(design.Design{}, 1, market.Full()); err == nil {
		t.Error("invalid design should error")
	}
	if _, err := m.Evaluate(simple(technode.N28), -1, market.Full()); err == nil {
		t.Error("negative chip count should error")
	}
}

func TestPerturbationDirections(t *testing.T) {
	// Each input's perturbation must push TTM in the physically
	// expected direction.
	d := scenario.A11At(technode.N28)
	n := 10e6
	var base core.Model
	ttm := func(p core.Perturbation) float64 {
		m := base
		m.Perturb = p
		v, err := m.TTM(d, n, market.Full())
		if err != nil {
			t.Fatal(err)
		}
		return float64(v)
	}
	b := ttm(core.Perturbation{})
	if ttm(core.Perturbation{NTT: 1.2}) <= b {
		t.Error("more transistors should not speed up TTM")
	}
	if ttm(core.Perturbation{NUT: 1.2}) <= b {
		t.Error("more unique transistors should slow tapeout")
	}
	if ttm(core.Perturbation{D0: 1.5}) <= b {
		t.Error("more defects should slow TTM")
	}
	if ttm(core.Perturbation{Rate: 1.2}) >= b {
		t.Error("faster wafer production should speed TTM")
	}
	if ttm(core.Perturbation{FabLatency: 1.2}) <= b {
		t.Error("longer fab latency should slow TTM")
	}
	if ttm(core.Perturbation{TAPLatency: 1.2}) <= b {
		t.Error("longer OSAT latency should slow TTM")
	}
}

func TestYieldOverrideRespected(t *testing.T) {
	var m core.Model
	d := design.Design{Dies: []design.Die{{
		Name: "interposer", Node: technode.N65, AreaOverride: 300,
		YieldOverride: 0.9999,
	}}}
	r, err := m.Evaluate(d, 1e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	if r.Dies[0].Yield != 0.9999 {
		t.Errorf("yield = %v, want override 0.9999", r.Dies[0].Yield)
	}
}

func TestYieldModelAblation(t *testing.T) {
	// Poisson yield is more pessimistic than negative binomial for
	// large dies, so it must never produce a faster TTM.
	nb := core.Model{YieldModel: yield.NegativeBinomial}
	po := core.Model{YieldModel: yield.Poisson}
	d := scenario.A11At(technode.N90) // ~977 mm² die: yield matters
	tNB, err := nb.TTM(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	tPO, err := po.TTM(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	if tPO <= tNB {
		t.Errorf("poisson TTM %v should exceed neg-binomial %v on a large die", float64(tPO), float64(tNB))
	}
}

func TestEdgeCorrectionAblation(t *testing.T) {
	with := core.Model{}
	without := core.Model{NoEdgeCorrection: true}
	d := scenario.A11At(technode.N90)
	rWith, err := with.Evaluate(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	rWithout, err := without.Evaluate(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	if rWithout.Dies[0].GrossPerWafer <= rWith.Dies[0].GrossPerWafer {
		t.Error("naive gross-die count should exceed edge-corrected")
	}
	if rWithout.TTM >= rWith.TTM {
		t.Error("ignoring edge dies should under-estimate TTM")
	}
}
