package core_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/market"
	"ttmcas/internal/units"
)

// sortedByName returns m's values in name order, so a fuzz input
// names the same design or model variant on every run.
func sortedByName[T any](m map[string]T) []T {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]T, len(names))
	for i, name := range names {
		out[i] = m[name]
	}
	return out
}

// FuzzEvaluateMatchesReference holds the production scalar path —
// Model.Evaluate (the full Result), Model.TTM and Model.CASWithStep,
// which compile the design and run the kernel — to the map-based
// reference: the same error text, or the same float bits in every
// field. designIdx picks a registered design and, through its high
// part, the design node whose capacity factor and queue the input sets;
// variantIdx picks a model variant. The seeds run in tier-1; CI's
// fuzz-smoke job explores further.
func FuzzEvaluateMatchesReference(f *testing.F) {
	designs, variants := sortedByName(registeredDesigns()), sortedByName(modelVariants())
	nan, inf := math.NaN(), math.Inf(1)
	for i := range designs {
		// The paper's operating point, and one node at reduced
		// capacity behind a 4-week queue at half global capacity.
		f.Add(uint8(i), uint8(i), 10e6, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
		f.Add(uint8(i+len(designs)), uint8(i+1), 1e4, 0.5, 0.6, 4.0, 1.1, 0.9, 1.25, 0.8, 1.2, 0.75, 0.05)
	}
	f.Add(uint8(0), uint8(0), 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.001)   // zero chips
	f.Add(uint8(1), uint8(2), 10e6, -0.5, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.1)   // stalled line
	f.Add(uint8(2), uint8(3), 10e6, 1.0, 0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.01)   // downed node
	f.Add(uint8(3), uint8(4), 10e6, 1.0, 0.005, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.01) // forward difference at the floor
	f.Add(uint8(4), uint8(5), 10e6, 1.0, 1.0, 0.0, 1e6, 1.0, 1.0, 1.0, 1.0, 1.0, 0.01)   // die too large
	f.Add(uint8(5), uint8(0), -1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.01)   // negative chips
	f.Add(uint8(6), uint8(1), nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan)
	f.Add(uint8(7), uint8(2), inf, inf, inf, inf, inf, inf, inf, inf, inf, inf, inf)
	f.Add(uint8(8), uint8(3), 1e300, 1e-300, -inf, -1.0, 1e-300, -1.0, 1e300, 1e-300, -inf, 1e300, -1.0)
	f.Fuzz(func(t *testing.T, designIdx, variantIdx uint8, chips, global, nodeCap, nodeQueue,
		ntt, nut, d0, rate, lfab, losat, step float64) {
		d := designs[int(designIdx)%len(designs)]
		nodes := d.Nodes()
		node := nodes[int(designIdx)/len(designs)%len(nodes)]
		m := variants[int(variantIdx)%len(variants)]
		m.Perturb = core.Perturbation{NTT: ntt, NUT: nut, D0: d0, Rate: rate, FabLatency: lfab, TAPLatency: losat}
		c := market.Conditions{GlobalCapacity: global}.
			WithNodeCapacity(node, nodeCap).
			WithQueue(node, units.Weeks(nodeQueue))
		ctx := fmt.Sprintf("%s %s %s n=%v", d.Name, node, c, chips)

		want, wantErr := core.ReferenceEvaluate(m, d, chips, c)
		got, gotErr := m.Evaluate(d, chips, c)
		sameResult(t, ctx+": Evaluate", got, want, gotErr, wantErr)
		ttm, ttmErr := m.TTM(d, chips, c)
		sameWeeks(t, ctx+": TTM", ttm, want.TTM, ttmErr, wantErr)

		wantCAS, wantErr := core.ReferenceCASWithStep(m, d, chips, c, step)
		gotCAS, gotErr := m.CASWithStep(d, chips, c, step)
		sameCASResult(t, fmt.Sprintf("%s step=%v: CASWithStep", ctx, step), gotCAS, wantCAS, gotErr, wantErr)
	})
}
