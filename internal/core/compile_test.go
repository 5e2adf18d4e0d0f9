package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/cost"
	"ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// The compiled evaluator, and the Model methods that compile and run
// it, must be indistinguishable from the map-based reference
// (core.ReferenceEvaluate, core.ReferenceCASWithStep): same float64
// bits, same error text, across every registered design, every
// built-in market scenario, and a cloud of random perturbations. These
// property tests are the contract that lets every driver (mc, sens,
// jobs, server) run the kernel blindly.

func registeredDesigns() map[string]design.Design {
	return map[string]design.Design{
		"a11":            scenario.A11(),
		"a11@28nm":       scenario.A11At(technode.N28),
		"a11@7nm":        scenario.A11At(technode.N7),
		"ariane":         scenario.ArianeConfig{}.Design(),
		"zen2":           scenario.Zen2(),
		"zen2-mono@7nm":  scenario.Zen2Monolithic(technode.N7),
		"chip-a":         scenario.ChipA(),
		"chip-b":         scenario.ChipB(),
		"accel-host@7nm": scenario.ArianeConfig{Cores: 1, ICacheKB: 16, DCacheKB: 32, Node: technode.N7}.Design(),
		"raven":          scenario.RavenConfig{}.Design(),
	}
}

// perturbations returns a deterministic cloud of multipliers around 1
// (±25%), plus the zero value and single-axis perturbations, covering
// the ±10% band the paper's Section 5 sweeps with margin.
func perturbations(seed int64, n int) []core.Perturbation {
	rng := rand.New(rand.NewSource(seed))
	u := func() float64 { return 0.75 + 0.5*rng.Float64() }
	ps := []core.Perturbation{
		{}, // zero value: all multipliers 1
		{NTT: 1.1}, {NUT: 0.9}, {D0: 1.25}, {Rate: 0.8}, {FabLatency: 1.2}, {TAPLatency: 0.75},
	}
	for i := 0; i < n; i++ {
		ps = append(ps, core.Perturbation{
			NTT: u(), NUT: u(), D0: u(), Rate: u(), FabLatency: u(), TAPLatency: u(),
		})
	}
	return ps
}

func modelVariants() map[string]core.Model {
	return map[string]core.Model{
		"default":  {},
		"no-edge":  {NoEdgeCorrection: true},
		"poisson":  {YieldModel: yield.Poisson},
		"murphy-2": {YieldModel: yield.Murphy, Alpha: 2},
		// Eq. 6 at an integer α other than the default (the fast path)
		// and at a fractional one (the math.Pow fallback).
		"negbin-2":   {Alpha: 2},
		"negbin-2.5": {Alpha: 2.5},
	}
}

func sameWeeks(t *testing.T, ctx string, got, want units.Weeks, gotErr, wantErr error) {
	t.Helper()
	sameValue(t, ctx, float64(got), float64(want), gotErr, wantErr)
}

// sameValue requires the path under test and its reference to agree:
// the same error text, or no error and the same float64 bits.
func sameValue(t *testing.T, ctx string, got, want float64, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: got err %v, reference err %v", ctx, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: got err %q, reference err %q", ctx, gotErr, wantErr)
		}
		return
	}
	if !sameF64(got, want) {
		t.Fatalf("%s: got %v (%#x), reference %v (%#x)", ctx,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// matchAtCapacity checks the per-call TTM kernel and Model.TTM against
// the reference at each global capacity caps yields for a scenario,
// over every model variant, registered design and built-in scenario.
func matchAtCapacity(t *testing.T, perts []core.Perturbation, caps func(market.Conditions) []float64) {
	t.Helper()
	const chips = 10e6
	for mname, m := range modelVariants() {
		for dname, d := range registeredDesigns() {
			for _, sc := range market.Scenarios() {
				ev, err := m.Compile(d, chips, sc.Conditions)
				if err != nil {
					t.Fatalf("%s/%s/%s: Compile: %v", mname, dname, sc.Name, err)
				}
				for _, f := range caps(sc.Conditions) {
					for i, p := range perts {
						om := m
						om.Perturb = p
						ctx := fmt.Sprintf("%s/%s/%s f=%v pert %d", mname, dname, sc.Name, f, i)
						want, wantErr := core.ReferenceTTM(om, d, chips, sc.Conditions.AtCapacity(f))
						got, gotErr := ev.EvalChipsAtCapacity(p, chips, f)
						sameWeeks(t, ctx, got, want, gotErr, wantErr)
						got, gotErr = om.TTM(d, chips, sc.Conditions.AtCapacity(f))
						sameWeeks(t, ctx+": Model.TTM", got, want, gotErr, wantErr)
					}
				}
			}
		}
	}
}

func TestEvaluatorMatchesOracleBitForBit(t *testing.T) {
	// The hot per-call path at the compiled global capacity.
	matchAtCapacity(t, perturbations(1, 24), func(c market.Conditions) []float64 {
		return []float64{c.GlobalCapacity}
	})
}

func TestEvaluatorAtCapacityMatchesOracle(t *testing.T) {
	// Overridden global capacities, exactly as evaluating at
	// c.AtCapacity(f) would.
	matchAtCapacity(t, perturbations(1, 24), func(market.Conditions) []float64 {
		return []float64{0.1, 0.25, 0.5, 1.0}
	})
}

func TestEvaluatorChipsAndNodeCapacityMatchOracle(t *testing.T) {
	perts := perturbations(3, 6)
	m := core.Model{}
	for dname, d := range registeredDesigns() {
		for _, sc := range market.Scenarios() {
			ev, err := m.Compile(d, 10e6, sc.Conditions)
			if err != nil {
				t.Fatal(err)
			}
			for _, chips := range []float64{0, 1e3, 50e6} {
				for i, p := range perts {
					om := m
					om.Perturb = p
					want, wantErr := core.ReferenceTTM(om, d, chips, sc.Conditions)
					got, gotErr := evalTTM(ev, p, chips)
					sameWeeks(t, fmt.Sprintf("%s/%s n=%v pert %d", dname, sc.Name, chips, i),
						got, want, gotErr, wantErr)
				}
			}
			// The finite-difference probe, as the split study issues it: a
			// one-node Factor column override on every node the design
			// uses.
			p := perts[len(perts)-1]
			om := m
			om.Perturb = p
			for _, node := range d.Nodes() {
				for _, f := range []float64{0.01, 0.6, 0.99, 1.01} {
					want, wantErr := core.ReferenceTTM(om, d, 10e6, sc.Conditions.WithNodeCapacity(node, f))
					b := columns([]core.Perturbation{p})
					b.Factor = make([][]float64, ev.NodeCount())
					b.Factor[ev.NodeIndex(node)] = []float64{f}
					out := make([]units.Weeks, 1)
					var errs core.BatchErrors
					if err := ev.EvalBatch(b, out, &errs); err != nil {
						t.Fatal(err)
					}
					sameWeeks(t, fmt.Sprintf("%s/%s node=%s f=%v", dname, sc.Name, node, f),
						out[0], want, batchErrAt(&errs, 0), wantErr)
				}
			}
		}
	}
}

func TestEvaluatorCASMatchesOracleBitForBit(t *testing.T) {
	perts := perturbations(4, 8)
	const chips = 10e6
	for mname, m := range modelVariants() {
		for dname, d := range registeredDesigns() {
			for _, sc := range market.Scenarios() {
				ev, err := m.Compile(d, chips, sc.Conditions)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range perts {
					om := m
					om.Perturb = p
					wantRes, wantErr := referenceCAS(om, d, chips, sc.Conditions)
					got, gotErr := ev.CASChipsAtCapacity(p, chips, sc.Conditions.GlobalCapacity)
					sameValue(t, fmt.Sprintf("%s/%s/%s pert %d: CAS", mname, dname, sc.Name, i),
						got, wantRes.CAS, gotErr, wantErr)
				}
				// CASChipsAtCapacity vs the reference at swept global
				// capacity.
				for _, f := range []float64{0.25, 0.7, 1.0} {
					wantRes, wantErr := referenceCAS(m, d, chips, sc.Conditions.AtCapacity(f))
					got, gotErr := ev.CASChipsAtCapacity(core.Perturbation{}, chips, f)
					sameValue(t, fmt.Sprintf("%s/%s/%s f=%v: CAS", mname, dname, sc.Name, f),
						got, wantRes.CAS, gotErr, wantErr)
				}
			}
		}
	}
}

func TestEvaluatorCloneMatchesOriginal(t *testing.T) {
	m := core.Model{}
	d := scenario.Zen2()
	ev, err := m.Compile(d, 10e6, market.Full().WithQueueAll(4))
	if err != nil {
		t.Fatal(err)
	}
	cl := ev.Clone()
	for _, p := range perturbations(5, 16) {
		a, errA := evalTTM(ev, p, ev.Chips())
		b, errB := evalTTM(cl, p, cl.Chips())
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("clone diverged: %v/%v vs %v/%v", a, errA, b, errB)
		}
	}
}

func TestEvaluatorZeroAllocs(t *testing.T) {
	m := core.Model{}
	for dname, d := range registeredDesigns() {
		ev, err := m.Compile(d, 10e6, market.Full().WithQueueAll(4))
		if err != nil {
			t.Fatal(err)
		}
		p := core.Perturbation{NTT: 1.05, NUT: 0.95, D0: 1.1, Rate: 0.9, FabLatency: 1.02, TAPLatency: 1.01}
		for _, g := range []float64{1, 0.5} {
			if n := testing.AllocsPerRun(200, func() {
				if _, err := ev.EvalChipsAtCapacity(p, 10e6, g); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s: EvalChipsAtCapacity(g=%v) allocates %v/op, want 0", dname, g, n)
			}
		}
		if n := testing.AllocsPerRun(50, func() {
			if _, err := ev.CASChipsAtCapacity(p, 10e6, 1); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: CASChipsAtCapacity allocates %v/op, want 0", dname, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			if _, err := ev.CostChips(cost.DefaultRates(), 10e6); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: CostChips allocates %v/op, want 0", dname, n)
		}
	}
}

func TestCostWaferCountMatchesDies(t *testing.T) {
	// Cost and TTM read one die phase, so the wafers cost pays for are,
	// bit for bit, the sum of the TTM breakdown's per-die wafers.
	var m core.Model
	var cm cost.Model
	for dname, d := range registeredDesigns() {
		for _, n := range []float64{1e4, 1e6, 1e7, 3.3e7} {
			res, err := m.Evaluate(d, n, market.Full())
			if err != nil {
				t.Fatal(err)
			}
			var sum units.Wafers
			for _, die := range res.Dies {
				sum += die.Wafers
			}
			b, err := cm.Evaluate(d, n)
			if err != nil {
				t.Fatal(err)
			}
			if !sameF64(float64(b.WaferCount), float64(sum)) {
				t.Errorf("%s n=%v: cost WaferCount %v, Σ Dies[i].Wafers %v", dname, n, b.WaferCount, sum)
			}
		}
	}
}

// randomConditions draws market conditions over every node of the
// database: a global capacity that is zero (full), negative (clamped to
// a stalled line) or up to 1.2; per-node factors including a downed
// line; and quotes including zero, negative and NaN weeks, which queue
// nothing.
func randomConditions(rng *rand.Rand) market.Conditions {
	var c market.Conditions
	switch rng.Intn(4) {
	case 0:
	case 1:
		c.GlobalCapacity = -0.5 * rng.Float64()
	default:
		c.GlobalCapacity = 1.2 * rng.Float64()
	}
	for _, n := range append(technode.All(), technode.Variants()...) {
		switch rng.Intn(6) {
		case 0:
			c = c.WithNodeCapacity(n, 0)
		case 1:
			c = c.WithNodeCapacity(n, 1.2*rng.Float64())
		}
		switch rng.Intn(6) {
		case 0:
			c = c.WithQueue(n, units.Weeks(8*rng.Float64()))
		case 1:
			c = c.WithQueue(n, units.Weeks([]float64{0, -1, math.NaN()}[rng.Intn(3)]))
		}
	}
	return c
}

// sameAnswers requires got and want to answer every per-call method
// identically: float64 bits, error text, and the condition-dependent
// rows of the breakdown (per-node queue and fabrication time, the
// critical node, every CAS derivative).
func sameAnswers(t *testing.T, ctx string, got, want *core.Evaluator, perts []core.Perturbation) {
	t.Helper()
	for i, p := range perts {
		for _, n := range []float64{1e4, 10e6} {
			ctx := fmt.Sprintf("%s pert %d n=%v", ctx, i, n)
			gr, gErr := got.EvalResultChips(p, n)
			wr, wErr := want.EvalResultChips(p, n)
			sameWeeks(t, ctx+": EvalResultChips", gr.TTM, wr.TTM, gErr, wErr)
			if gErr == nil {
				if gr.CriticalNode != wr.CriticalNode || len(gr.Nodes) != len(wr.Nodes) {
					t.Fatalf("%s: breakdown %+v, want %+v", ctx, gr, wr)
				}
				for j, g := range gr.Nodes {
					w := wr.Nodes[j]
					if !sameF64(float64(g.Queue), float64(w.Queue)) || !sameF64(float64(g.FabTotal), float64(w.FabTotal)) {
						t.Fatalf("%s: node %s row %+v, want %+v", ctx, g.Node, g, w)
					}
				}
			}
			gc, gErr := got.CASResultChips(p, n)
			wc, wErr := want.CASResultChips(p, n)
			sameValue(t, ctx+": CASResultChips", gc.CAS, wc.CAS, gErr, wErr)
			for node, w := range wc.Derivatives {
				if g, ok := gc.Derivatives[node]; !ok || !sameF64(g, w) {
					t.Fatalf("%s: derivative[%v] = %v, want %v", ctx, node, g, w)
				}
			}
			for _, f := range []float64{0.3, 1} {
				gw, gErr := got.EvalChipsAtCapacity(p, n, f)
				ww, wErr := want.EvalChipsAtCapacity(p, n, f)
				sameWeeks(t, fmt.Sprintf("%s f=%v: EvalChipsAtCapacity", ctx, f), gw, ww, gErr, wErr)
				gv, gErr := got.CASChipsAtCapacity(p, n, f)
				wv, wErr := want.CASChipsAtCapacity(p, n, f)
				sameValue(t, fmt.Sprintf("%s f=%v: CASChipsAtCapacity", ctx, f), gv, wv, gErr, wErr)
			}
		}
	}
}

// TestBindMatchesCompile holds the request path's contract: a clone of
// an evaluator compiled under one set of conditions, re-bound to
// another, answers bit-for-bit as an evaluator compiled under the
// second. One clone is bound through the whole sequence, as a pooled
// server clone is, so no state may leak from one binding to the next.
func TestBindMatchesCompile(t *testing.T) {
	m := core.Model{}
	rng := rand.New(rand.NewSource(21))
	var conds []market.Conditions
	for _, sc := range market.Scenarios() {
		conds = append(conds, sc.Conditions)
	}
	for i := 0; i < 24; i++ {
		conds = append(conds, randomConditions(rng))
	}
	perts := perturbations(22, 2)
	for dname, d := range registeredDesigns() {
		base, err := m.Compile(d, 1, conds[0])
		if err != nil {
			t.Fatal(err)
		}
		ev := base.Clone()
		for i, c := range conds {
			ev.Bind(c)
			ref, err := m.Compile(d, 1, c)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("%s conditions %d (%s)", dname, i, c)
			sameAnswers(t, ctx, ev, ref, perts)
			// Compile binds through Bind too, so also anchor the bound
			// evaluator to the map-based reference.
			want, wantErr := core.ReferenceTTM(m, d, 1e6, c)
			got, gotErr := evalTTM(ev, core.Perturbation{}, 1e6)
			sameWeeks(t, ctx+": vs reference", got, want, gotErr, wantErr)
		}
	}
}

// TestBindIsolatesClones binds one clone and requires the evaluator it
// was cloned from, and a sibling clone, to keep answering under their
// own conditions: clones share the compiled die tables but not the
// node table Bind writes.
func TestBindIsolatesClones(t *testing.T) {
	m := core.Model{}
	d := scenario.Zen2()
	c0 := market.Full().WithQueueAll(2)
	c1 := market.Full().AtCapacity(0.4).WithNodeCapacity(technode.N12, 0.3).WithQueue(technode.N7, 6)
	base, err := m.Compile(d, 1, c0)
	if err != nil {
		t.Fatal(err)
	}
	sibling := base.Clone()
	bound := base.Clone()
	bound.Bind(c1)
	ref0, err := m.Compile(d, 1, c0)
	if err != nil {
		t.Fatal(err)
	}
	ref1, err := m.Compile(d, 1, c1)
	if err != nil {
		t.Fatal(err)
	}
	if a := mustTTM(t, ref0); a == mustTTM(t, ref1) {
		t.Fatalf("c0 and c1 give the same TTM %v; the test would not see a leak", a)
	}
	perts := perturbations(23, 2)
	sameAnswers(t, "bound clone", bound, ref1, perts)
	sameAnswers(t, "base", base, ref0, perts)
	sameAnswers(t, "sibling clone", sibling, ref0, perts)
}

func mustTTM(t *testing.T, ev *core.Evaluator) units.Weeks {
	t.Helper()
	w, err := evalTTM(ev, core.Perturbation{}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCompileRejectsInvalidInput(t *testing.T) {
	m := core.Model{}
	if _, err := m.Compile(design.Design{}, 1, market.Full()); err == nil {
		t.Error("Compile accepted an empty design")
	}
	if _, err := m.Compile(scenario.A11(), -1, market.Full()); err == nil {
		t.Error("Compile accepted a negative chip count")
	}
	if _, err := m.Compile(design.Design{Dies: []design.Die{{Name: "x", Node: 999, NTT: 1e6}}}, 1, market.Full()); err == nil {
		t.Error("Compile accepted an unknown node")
	}
}

// evalTTM is the per-call headline TTM at the compiled conditions for n
// chips.
func evalTTM(ev *core.Evaluator, p core.Perturbation, n float64) (units.Weeks, error) {
	r, err := ev.EvalResultChips(p, n)
	return r.TTM, err
}

// evalCAS is the per-call agility score at the compiled conditions.
func evalCAS(ev *core.Evaluator, p core.Perturbation) (float64, error) {
	r, err := ev.CASResultChips(p, ev.Chips())
	return r.CAS, err
}

// sameF64 compares two float64s bit-for-bit (so Inf==Inf, and -0 != 0
// is surfaced rather than hidden).
func sameF64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// referenceCAS is the reference agility score at the default step.
func referenceCAS(m core.Model, d design.Design, n float64, c market.Conditions) (core.CASResult, error) {
	return core.ReferenceCASWithStep(m, d, n, c, core.DefaultDerivativeStep)
}

// sameResult requires a full evaluation and its reference to agree:
// the same error text, or no error and every phase, die row, node row
// and the critical node equal, floats bit for bit.
func sameResult(t *testing.T, ctx string, got, want core.Result, gotErr, wantErr error) {
	t.Helper()
	sameWeeks(t, ctx, got.TTM, want.TTM, gotErr, wantErr)
	if gotErr != nil {
		return
	}
	for _, ph := range []struct {
		name      string
		got, want float64
	}{
		{"DesignTime", float64(got.DesignTime), float64(want.DesignTime)},
		{"Tapeout", float64(got.Tapeout), float64(want.Tapeout)},
		{"TapeoutHours", float64(got.TapeoutHours), float64(want.TapeoutHours)},
		{"Fabrication", float64(got.Fabrication), float64(want.Fabrication)},
		{"Packaging", float64(got.Packaging), float64(want.Packaging)},
		{"TTM", float64(got.TTM), float64(want.TTM)},
	} {
		if !sameF64(ph.got, ph.want) {
			t.Fatalf("%s: %s got %v, reference %v", ctx, ph.name, ph.got, ph.want)
		}
	}
	if got.CriticalNode != want.CriticalNode {
		t.Fatalf("%s: CriticalNode got %v, reference %v", ctx, got.CriticalNode, want.CriticalNode)
	}
	if len(got.Dies) != len(want.Dies) || len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: breakdown lengths %d/%d vs %d/%d",
			ctx, len(got.Dies), len(got.Nodes), len(want.Dies), len(want.Nodes))
	}
	for j := range want.Dies {
		g, w := got.Dies[j], want.Dies[j]
		if g.Name != w.Name || g.Node != w.Node ||
			!sameF64(float64(g.Area), float64(w.Area)) ||
			!sameF64(g.Yield, w.Yield) ||
			!sameF64(g.GrossPerWafer, w.GrossPerWafer) ||
			!sameF64(float64(g.Wafers), float64(w.Wafers)) {
			t.Fatalf("%s: die %d got %+v, reference %+v", ctx, j, g, w)
		}
	}
	for j := range want.Nodes {
		g, w := got.Nodes[j], want.Nodes[j]
		if g.Node != w.Node ||
			!sameF64(float64(g.Wafers), float64(w.Wafers)) ||
			!sameF64(float64(g.Queue), float64(w.Queue)) ||
			!sameF64(float64(g.Production), float64(w.Production)) ||
			!sameF64(float64(g.FabTotal), float64(w.FabTotal)) {
			t.Fatalf("%s: node %d got %+v, reference %+v", ctx, j, g, w)
		}
	}
}

// sameCASResult requires an agility score and its reference to agree:
// the same error text, or no error and the score and every node's
// derivative equal bit for bit.
func sameCASResult(t *testing.T, ctx string, got, want core.CASResult, gotErr, wantErr error) {
	t.Helper()
	sameValue(t, ctx+": CAS", got.CAS, want.CAS, gotErr, wantErr)
	if gotErr != nil {
		return
	}
	if len(got.Derivatives) != len(want.Derivatives) {
		t.Fatalf("%s: derivative count %d vs %d", ctx, len(got.Derivatives), len(want.Derivatives))
	}
	for node, w := range want.Derivatives {
		if g, ok := got.Derivatives[node]; !ok || !sameF64(g, w) {
			t.Fatalf("%s: derivative[%v] got %v, reference %v", ctx, node, g, w)
		}
	}
}

func TestEvaluatorEvalResultMatchesOracle(t *testing.T) {
	// EvalResultChips, and Model.Evaluate which runs it, must reproduce
	// the reference's full breakdown — every phase, every die row,
	// every node row, the critical node — bit-for-bit, across designs,
	// scenarios and chip counts, so the server can serve detailed
	// responses from a cached evaluator.
	perts := perturbations(11, 6)
	for mname, m := range modelVariants() {
		for dname, d := range registeredDesigns() {
			for _, sc := range market.Scenarios() {
				ev, err := m.Compile(d, 1, sc.Conditions)
				if err != nil {
					t.Fatal(err)
				}
				for _, chips := range []float64{0, 1e4, 10e6} {
					for i, p := range perts {
						ctx := fmt.Sprintf("%s/%s/%s n=%v pert %d", mname, dname, sc.Name, chips, i)
						om := m
						om.Perturb = p
						want, wantErr := core.ReferenceEvaluate(om, d, chips, sc.Conditions)
						got, gotErr := ev.EvalResultChips(p, chips)
						sameResult(t, ctx, got, want, gotErr, wantErr)
						got, gotErr = om.Evaluate(d, chips, sc.Conditions)
						sameResult(t, ctx+": Model.Evaluate", got, want, gotErr, wantErr)
					}
				}
			}
		}
	}
}

func TestEvaluatorCASResultMatchesOracle(t *testing.T) {
	// CASResultChips at the default step, and Model.CASWithStep at the
	// default and at the step-size ablation's steps (0 meaning the
	// default), against the reference's score and derivatives.
	perts := perturbations(12, 4)
	steps := []float64{0, 0.001, core.DefaultDerivativeStep, 0.05, 0.1}
	for mname, m := range modelVariants() {
		for dname, d := range registeredDesigns() {
			for _, sc := range market.Scenarios() {
				ev, err := m.Compile(d, 1, sc.Conditions)
				if err != nil {
					t.Fatal(err)
				}
				for _, chips := range []float64{1e4, 10e6} {
					for i, p := range perts {
						ctx := fmt.Sprintf("%s/%s/%s n=%v pert %d", mname, dname, sc.Name, chips, i)
						om := m
						om.Perturb = p
						want, wantErr := referenceCAS(om, d, chips, sc.Conditions)
						got, gotErr := ev.CASResultChips(p, chips)
						sameCASResult(t, ctx, got, want, gotErr, wantErr)
						for _, h := range steps {
							want, wantErr := core.ReferenceCASWithStep(om, d, chips, sc.Conditions, h)
							got, gotErr := om.CASWithStep(d, chips, sc.Conditions, h)
							sameCASResult(t, fmt.Sprintf("%s step=%v: Model.CASWithStep", ctx, h), got, want, gotErr, wantErr)
						}
					}
				}
			}
		}
	}
}

func TestEvaluatorChipsAtCapacityMatchesOracle(t *testing.T) {
	// The chips+capacity override pair is what lets one cached evaluator
	// serve CAS/TTM curves for any request volume.
	m := core.Model{}
	d := scenario.Zen2()
	base := market.Full().WithQueueAll(2)
	ev, err := m.Compile(d, 1, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, chips := range []float64{1e4, 10e6} {
		for _, f := range []float64{0.25, 0.5, 1.0} {
			for i, p := range perturbations(13, 4) {
				ctx := fmt.Sprintf("n=%v f=%v pert %d", chips, f, i)
				om := m
				om.Perturb = p
				want, wantErr := core.ReferenceTTM(om, d, chips, base.AtCapacity(f))
				got, gotErr := ev.EvalChipsAtCapacity(p, chips, f)
				sameWeeks(t, ctx, got, want, gotErr, wantErr)

				wantCAS, wantErr := referenceCAS(om, d, chips, base.AtCapacity(f))
				gotCAS, gotErr := ev.CASChipsAtCapacity(p, chips, f)
				sameValue(t, ctx+": CAS", gotCAS, wantCAS.CAS, gotErr, wantErr)
			}
		}
	}
	if _, err := ev.EvalResultChips(core.Perturbation{}, -1); err == nil {
		t.Error("EvalResultChips accepted a negative chip count")
	}
	if _, err := ev.CASResultChips(core.Perturbation{}, -1); err == nil {
		t.Error("CASResultChips accepted a negative chip count")
	}
}

// TestClonesShareNoScratch runs the per-call methods on clones in
// parallel (meaningful under -race): each clone owns its one-sample
// batch, its wafer column included, so every clone answers exactly as
// the evaluator it was cloned from answered serially.
func TestClonesShareNoScratch(t *testing.T) {
	perts := perturbations(5, 16)
	for _, d := range registeredDesigns() {
		ev, err := core.Model{}.Compile(d, 1e6, market.Full().WithQueueAll(2))
		if err != nil {
			t.Fatal(err)
		}
		ttm := make([]units.Weeks, len(perts))
		cas := make([]float64, len(perts))
		for i, p := range perts {
			if ttm[i], err = ev.EvalChipsAtCapacity(p, 1e6, 0.8); err != nil {
				t.Fatal(err)
			}
			if cas[i], err = ev.CASChipsAtCapacity(p, 1e6, 0.8); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			cl := ev.Clone()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					for i, p := range perts {
						got, err := cl.EvalChipsAtCapacity(p, 1e6, 0.8)
						gotCAS, errCAS := cl.CASChipsAtCapacity(p, 1e6, 0.8)
						if err != nil || errCAS != nil || got != ttm[i] || gotCAS != cas[i] {
							t.Errorf("%s sample %d: clone %v, %v (%v, %v); serial %v, %v", d.Name, i, got, gotCAS, err, errCAS, ttm[i], cas[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
