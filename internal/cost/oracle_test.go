package cost

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"ttmcas/internal/design"
	"ttmcas/internal/geometry"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
	"ttmcas/internal/yield"
)

// Model.Evaluate reads cost off the compiled kernel's die phase; these
// tests hold it to referenceEvaluate, the direct walk of the design,
// bit for bit in every Breakdown field.

// oracleDesigns are the registered case-study designs, in a fixed order
// so a fuzz input names the same design on every run.
func oracleDesigns() []design.Design {
	return []design.Design{
		scenario.A11(),
		scenario.A11At(technode.N28),
		scenario.A11At(technode.N7),
		scenario.ArianeConfig{}.Design(),
		scenario.Zen2(),
		scenario.Zen2Monolithic(technode.N7),
		scenario.ChipA(),
		scenario.ChipB(),
		scenario.ArianeConfig{Cores: 1, ICacheKB: 16, DCacheKB: 32, Node: technode.N7}.Design(),
		scenario.RavenConfig{}.Design(),
	}
}

// oracleVariant is one manufacturing configuration of the cost model:
// a Model and an optional rewrite of the design.
type oracleVariant struct {
	name  string
	model Model
	// salvage, when non-nil, is the binning scheme every die gets.
	salvage *yield.Salvage
}

// oracleVariants mirror the model variants of internal/core's oracle
// tests that the cost model can express: Eq. 6 at an integer α other
// than the default (the fast path) and at a fractional one (the
// math.Pow fallback), salvage binning, and a node database whose lines
// all run physical 200 mm wafers.
func oracleVariants(t testing.TB) []oracleVariant {
	var params []technode.Params
	for _, n := range append(technode.All(), technode.Variants()...) {
		p := technode.MustLookup(n)
		p.WaferDiameterMM = 200
		params = append(params, p)
	}
	db200, err := technode.NewDatabase(params)
	if err != nil {
		t.Fatal(err)
	}
	return []oracleVariant{
		{name: "default"},
		{name: "negbin-2", model: Model{Alpha: 2}},
		{name: "negbin-2.5", model: Model{Alpha: 2.5}},
		{name: "salvage", salvage: &yield.Salvage{Cores: 8, MinGoodCores: 6, CoreAreaFraction: 0.7}},
		{name: "200mm-db", model: Model{Nodes: db200}},
		{name: "custom-rates", model: Model{Rates: Rates{TapeoutLaborPerHour: 1000, PackageBasePerChip: 1, PackagePerDie: 2, PackagePerMM2: 0.01}}},
	}
}

// apply returns d as the variant builds it, never sharing d's dies.
func (v oracleVariant) apply(d design.Design) design.Design {
	d.Dies = append([]design.Die(nil), d.Dies...)
	if v.salvage != nil {
		for i := range d.Dies {
			s := *v.salvage
			d.Dies[i].Salvage = &s
		}
	}
	return d
}

// sameBreakdown requires Model.Evaluate and the reference walk to
// agree: the same error class, or no error and the same float64 bits in
// every field. The kernel wraps a die too large for the wafer in a
// `core: die "…"` context the walk does not have, so that error is
// compared by errors.Is; every other error comes from code both share
// and must match in text.
func sameBreakdown(t *testing.T, ctx string, got, want Breakdown, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: got err %v, reference err %v", ctx, gotErr, wantErr)
	}
	if gotErr != nil {
		if errors.Is(wantErr, geometry.ErrDieTooLarge) {
			if !errors.Is(gotErr, geometry.ErrDieTooLarge) {
				t.Fatalf("%s: got err %q, reference err %q", ctx, gotErr, wantErr)
			}
			return
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: got err %q, reference err %q", ctx, gotErr, wantErr)
		}
		return
	}
	fields := []struct {
		name      string
		got, want float64
	}{
		{"MaskNRE", float64(got.MaskNRE), float64(want.MaskNRE)},
		{"TapeoutNRE", float64(got.TapeoutNRE), float64(want.TapeoutNRE)},
		{"Wafers", float64(got.Wafers), float64(want.Wafers)},
		{"Packaging", float64(got.Packaging), float64(want.Packaging)},
		{"Total", float64(got.Total), float64(want.Total)},
		{"PerChip", float64(got.PerChip), float64(want.PerChip)},
		{"WaferCount", float64(got.WaferCount), float64(want.WaferCount)},
	}
	for _, f := range fields {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s = %v (%#x), reference %v (%#x)", ctx, f.name,
				f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
}

func TestEvaluateMatchesReference(t *testing.T) {
	chips := []float64{0, 1, 1e4, 1e6, 1e7, 3.3e7, 1e8, 1e9}
	for _, v := range oracleVariants(t) {
		for _, d := range oracleDesigns() {
			d = v.apply(d)
			for _, n := range chips {
				ctx := fmt.Sprintf("%s/%s n=%v", v.name, d.Name, n)
				want, wantErr := referenceEvaluate(v.model, d, n)
				if wantErr != nil {
					t.Fatalf("%s: reference: %v", ctx, wantErr)
				}
				got, gotErr := v.model.Evaluate(d, n)
				sameBreakdown(t, ctx, got, want, gotErr, wantErr)
				total, err := v.model.Total(d, n)
				if (err == nil) != (gotErr == nil) || total != got.Total {
					t.Fatalf("%s: Total = %v, %v; Evaluate().Total = %v", ctx, total, err, got.Total)
				}
			}
		}
	}
}

func TestNegativeChipCountRejected(t *testing.T) {
	// The walk would price -1e6 chips (negative packaging, a positive
	// total); the kernel rejects the count as Model.TTM does.
	var m Model
	_, err := m.Evaluate(scenario.Zen2(), -1e6)
	if err == nil || !strings.Contains(err.Error(), "core: negative chip count") {
		t.Fatalf("Evaluate(zen2, -1e6): err = %v", err)
	}
	if _, err := m.Total(scenario.Zen2(), -1); err == nil {
		t.Error("Total accepted a negative chip count")
	}
}

// FuzzCostMatchesReference holds Model.Evaluate to the reference walk
// over the registered designs × oracleVariants × chip counts. area,
// when positive, overrides the first die's area (reaching the die too
// large for the wafer); minGood sets the salvage variant's required
// good cores out of 8 (0 and 9 are invalid binning schemes). A negative chip
// count is the one documented divergence: it must fail as the TTM
// model does. The seeds run in tier-1; CI's fuzz-smoke job explores
// further.
func FuzzCostMatchesReference(f *testing.F) {
	designs, variants := oracleDesigns(), oracleVariants(f)
	for i := range designs {
		f.Add(uint8(i), uint8(i), 10e6, 0.0, uint8(6))
		f.Add(uint8(i), uint8(i+1), 1e4, 0.0, uint8(6))
	}
	f.Add(uint8(0), uint8(0), 0.0, 0.0, uint8(6))            // zero chips
	f.Add(uint8(1), uint8(3), 33e6, 0.0, uint8(0))           // invalid salvage scheme
	f.Add(uint8(2), uint8(4), 1e6, 1e6, uint8(6))            // die too large
	f.Add(uint8(3), uint8(0), 1e6, 1e-9, uint8(6))           // a sliver of a die
	f.Add(uint8(4), uint8(2), -1.0, 0.0, uint8(6))           // negative chips
	f.Add(uint8(5), uint8(1), math.NaN(), 0.0, uint8(6))     // NaN chips
	f.Add(uint8(6), uint8(5), math.Inf(1), 0.0, uint8(6))    // infinite chips
	f.Add(uint8(7), uint8(3), 1e300, math.NaN(), uint8(255)) // NaN area
	f.Fuzz(func(t *testing.T, designIdx, variantIdx uint8, chips, area float64, minGood uint8) {
		v := variants[int(variantIdx)%len(variants)]
		if v.salvage != nil {
			s := *v.salvage
			s.MinGoodCores = int(minGood) % 10
			v.salvage = &s
		}
		d := v.apply(designs[int(designIdx)%len(designs)])
		if area > 0 || math.IsNaN(area) {
			d.Dies[0].AreaOverride = units.MM2(area)
		}
		ctx := fmt.Sprintf("%s/%s n=%v area=%v", v.name, d.Name, chips, area)
		got, gotErr := v.model.Evaluate(d, chips)
		if chips < 0 {
			if gotErr == nil || !strings.Contains(gotErr.Error(), "negative chip count") {
				if d.Validate() == nil {
					t.Fatalf("%s: err = %v, want a negative chip count error", ctx, gotErr)
				}
			}
			return
		}
		want, wantErr := referenceEvaluate(v.model, d, chips)
		sameBreakdown(t, ctx, got, want, gotErr, wantErr)
	})
}
