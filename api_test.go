package ttmcas_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"ttmcas"
)

func TestEvaluateA11(t *testing.T) {
	d := ttmcas.A11At(ttmcas.N28)
	r, err := ttmcas.Evaluate(d, 10e6, ttmcas.FullCapacity())
	if err != nil {
		t.Fatal(err)
	}
	if r.TTM <= 0 || r.TTM != r.DesignTime+r.Tapeout+r.Fabrication+r.Packaging {
		t.Errorf("breakdown inconsistent: %+v", r)
	}
	ttm, err := ttmcas.TTM(d, 10e6, ttmcas.FullCapacity())
	if err != nil || ttm != r.TTM {
		t.Errorf("TTM() = %v, %v", ttm, err)
	}
}

func TestCASAndCurve(t *testing.T) {
	d := ttmcas.A11At(ttmcas.N7)
	cas, err := ttmcas.CAS(d, 10e6, ttmcas.FullCapacity())
	if err != nil || cas.CAS <= 0 {
		t.Fatalf("CAS = %+v, %v", cas, err)
	}
	curve, err := ttmcas.CASCurve(d, 10e6, ttmcas.FullCapacity(), []float64{0.5, 1.0})
	if err != nil || len(curve) != 2 {
		t.Fatalf("curve = %v, %v", curve, err)
	}
	if curve[0].CAS >= curve[1].CAS {
		t.Error("CAS should rise with capacity")
	}
}

func TestCostFacade(t *testing.T) {
	b, err := ttmcas.Cost(ttmcas.Zen2(), 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total != b.MaskNRE+b.TapeoutNRE+b.Wafers+b.Packaging {
		t.Errorf("cost breakdown inconsistent: %+v", b)
	}
}

func TestNodeHelpers(t *testing.T) {
	if len(ttmcas.Nodes()) != 12 {
		t.Errorf("Nodes() = %d, want 12", len(ttmcas.Nodes()))
	}
	if len(ttmcas.ProducingNodes()) != 10 {
		t.Errorf("ProducingNodes() = %d, want 10", len(ttmcas.ProducingNodes()))
	}
	n, err := ttmcas.ParseNode("28nm")
	if err != nil || n != ttmcas.N28 {
		t.Errorf("ParseNode = %v, %v", n, err)
	}
	p, err := ttmcas.LookupNode(ttmcas.N12)
	if err != nil || !p.InProduction() {
		t.Errorf("12nm variant should resolve: %+v, %v", p, err)
	}
}

func TestUncertaintyFacade(t *testing.T) {
	d := ttmcas.A11At(ttmcas.N28)
	est, err := ttmcas.TTMWithUncertainty(context.Background(), d, 10e6, ttmcas.FullCapacity(), ttmcas.MCConfig{Samples: 64})
	if err != nil || !(est.CI.Lo <= est.Mean && est.Mean <= est.CI.Hi) {
		t.Fatalf("estimate = %+v, %v", est, err)
	}
	cas, err := ttmcas.CASWithUncertainty(context.Background(), d, 10e6, ttmcas.FullCapacity(), ttmcas.MCConfig{Samples: 32})
	if err != nil || cas.Mean <= 0 {
		t.Fatalf("cas estimate = %+v, %v", cas, err)
	}
}

func TestSensitivityFacade(t *testing.T) {
	d := ttmcas.A11At(ttmcas.N5)
	res, err := ttmcas.Sensitivity(context.Background(), ttmcas.Model{}, d, 10e6, ttmcas.FullCapacity(), ttmcas.SensitivityConfig{N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Total) != len(ttmcas.SensitivityInputs()) {
		t.Errorf("inputs = %v", res)
	}
	// 5nm: unique transistor count should carry real weight.
	idx := -1
	for i, name := range res.Inputs {
		if name == "NUT" {
			idx = i
		}
	}
	if idx < 0 || res.Total[idx] < 0.1 {
		t.Errorf("NUT S_T at 5nm = %v, want substantial", res.Total)
	}
}

func TestDieYield(t *testing.T) {
	y, err := ttmcas.DieYield(1660, ttmcas.N250)
	if err != nil || math.Abs(y-0.48) > 0.01 {
		t.Errorf("yield = %v, %v", y, err)
	}
	if _, err := ttmcas.DieYield(100, ttmcas.Node(3)); err == nil {
		t.Error("unknown node should error")
	}
}

func TestFabFacade(t *testing.T) {
	line, err := ttmcas.FabLineFor(ttmcas.N28)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ttmcas.SimulateFab(line, 10_000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LastPackaged <= res.LastFabComplete {
		t.Errorf("milestones out of order: %+v", res)
	}
	if _, err := ttmcas.FabLineFor(ttmcas.Node(3)); err == nil {
		t.Error("unknown node should error")
	}
}

func TestFigureFacade(t *testing.T) {
	ids := ttmcas.FigureIDs()
	if len(ids) != 23 {
		t.Fatalf("FigureIDs = %v", ids)
	}
	r, err := ttmcas.Figure("t2", ttmcas.FastFigures())
	if err != nil || r.ID != "t2" {
		t.Fatalf("Figure(t2) = %v, %v", r, err)
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}

func TestScenariosFacade(t *testing.T) {
	if len(ttmcas.Scenarios()) < 5 {
		t.Error("scenarios missing")
	}
	d := ttmcas.Ariane16(32, 32, ttmcas.N14)
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
	if err := ttmcas.RavenMCU(ttmcas.N180).Validate(); err != nil {
		t.Error(err)
	}
}

func TestPlannerFacade(t *testing.T) {
	p := ttmcas.NewPlanner(ttmcas.RavenMCU(ttmcas.N180))
	p.MultiProcess = false
	p.Nodes = []ttmcas.Node{ttmcas.N40, ttmcas.N28}
	best, all, err := p.Recommend(ttmcas.PlanRequirements{Volume: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	if best.Name == "" || len(all) != 2 {
		t.Fatalf("best=%+v all=%d", best, len(all))
	}
	_, _, err = p.Recommend(ttmcas.PlanRequirements{Volume: 1e8, Deadline: 1})
	if !errors.Is(err, ttmcas.ErrNoFeasiblePlan) {
		t.Errorf("err = %v, want ErrNoFeasiblePlan", err)
	}
	if ttmcas.SplitFactory(ttmcas.RavenMCU(ttmcas.N180))(ttmcas.N28).Dies[0].Node != ttmcas.N28 {
		t.Error("SplitFactory should retarget")
	}
}

func TestDesignRegistry(t *testing.T) {
	names := ttmcas.DesignNames()
	want := []string{"a11", "zen2", "ariane16", "raven", "chipA", "chipB"}
	if len(names) != len(want) {
		t.Fatalf("DesignNames = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("DesignNames[%d] = %q, want %q", i, names[i], n)
		}
	}
	for _, name := range names {
		d, err := ttmcas.DesignByName(name)
		if err != nil {
			t.Errorf("DesignByName(%q): %v", name, err)
			continue
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: invalid design: %v", name, err)
		}
		if ttmcas.DesignStudy(name) == "" {
			t.Errorf("DesignStudy(%q) empty", name)
		}
	}
	// Case-insensitive, as the CLI always accepted.
	if d, err := ttmcas.DesignByName("CHIPA"); err != nil || d.Name != ttmcas.ChipA().Name {
		t.Errorf("DesignByName(CHIPA) = %v, %v", d.Name, err)
	}
	if _, err := ttmcas.DesignByName("nonesuch"); err == nil {
		t.Error("unknown design should error")
	}
	if ttmcas.DesignStudy("nonesuch") != "" {
		t.Error("unknown design should have no study")
	}
}

// TestWriteNodeDatabaseNil pins the doc-comment promise that a nil
// database serializes the built-in calibrated one (the nil-receiver
// path of technode.Database.WriteJSON).
func TestWriteNodeDatabaseNil(t *testing.T) {
	var nilOut, defaultOut bytes.Buffer
	if err := ttmcas.WriteNodeDatabase(&nilOut, nil); err != nil {
		t.Fatalf("WriteNodeDatabase(w, nil): %v", err)
	}
	if err := ttmcas.WriteNodeDatabase(&defaultOut, ttmcas.DefaultNodeDatabase()); err != nil {
		t.Fatalf("WriteNodeDatabase(w, Default): %v", err)
	}
	if nilOut.String() != defaultOut.String() {
		t.Error("nil database should serialize identically to the built-in one")
	}
	db, err := ttmcas.ReadNodeDatabase(&nilOut)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for _, n := range ttmcas.Nodes() {
		got, err := db.Lookup(n)
		if err != nil {
			t.Fatalf("round-tripped database missing %s: %v", n, err)
		}
		want, _ := ttmcas.LookupNode(n)
		if got != want {
			t.Errorf("%s: round trip changed params:\n got %+v\nwant %+v", n, got, want)
		}
	}
}

func TestParseNodeErrorPaths(t *testing.T) {
	cases := []struct {
		in      string
		want    ttmcas.Node
		wantErr bool
	}{
		{"", 0, true},
		{"3nm", 0, true}, // plausible-looking but outside the database
		{"abc", 0, true},
		{"-7", 0, true},
		{"28nm", ttmcas.N28, false},
		{"28", ttmcas.N28, false},
		{"28nm ", ttmcas.N28, false}, // trailing whitespace is tolerated
		{" 28", ttmcas.N28, false},
	}
	for _, tc := range cases {
		n, err := ttmcas.ParseNode(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseNode(%q) = %v, want error", tc.in, n)
			}
			continue
		}
		if err != nil || n != tc.want {
			t.Errorf("ParseNode(%q) = %v, %v, want %v", tc.in, n, err, tc.want)
		}
	}
}

// TestLookupNodeAbsentFromCustomDatabase checks the error path of a
// database that deliberately omits nodes: a single-node database built
// through the public JSON surface must reject every other node.
func TestLookupNodeAbsentFromCustomDatabase(t *testing.T) {
	var full bytes.Buffer
	if err := ttmcas.WriteNodeDatabase(&full, nil); err != nil {
		t.Fatal(err)
	}
	var entries []map[string]any
	if err := json.Unmarshal(full.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	var only []map[string]any
	for _, e := range entries {
		if e["node_nm"] == float64(28) {
			only = append(only, e)
		}
	}
	if len(only) != 1 {
		t.Fatalf("expected one 28nm entry, got %d", len(only))
	}
	single, err := json.Marshal(only)
	if err != nil {
		t.Fatal(err)
	}
	db, err := ttmcas.ReadNodeDatabase(bytes.NewReader(single))
	if err != nil {
		t.Fatalf("single-node database: %v", err)
	}
	if _, err := db.Lookup(ttmcas.N28); err != nil {
		t.Errorf("Lookup(28nm) on its own database: %v", err)
	}
	if _, err := db.Lookup(ttmcas.N5); err == nil {
		t.Error("Lookup(5nm) should fail on a database that omits it")
	}
	// The package-level LookupNode still answers from the built-in
	// database, and still rejects nodes outside it.
	if _, err := ttmcas.LookupNode(ttmcas.N5); err != nil {
		t.Errorf("LookupNode(5nm) on the built-in database: %v", err)
	}
	if _, err := ttmcas.LookupNode(ttmcas.Node(3)); err == nil {
		t.Error("LookupNode(3) should fail: not in the built-in database")
	}
}
