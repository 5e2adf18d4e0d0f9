package main

import (
	"os"
	"strings"
	"testing"

	"ttmcas"
)

// capture runs run(args) with stdout redirected and returns the output.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), runErr
}

func TestNodesCommand(t *testing.T) {
	out, err := capture(t, "nodes")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"250nm", "5nm", "12nm", "kW/month"} {
		if !strings.Contains(out, want) {
			t.Errorf("nodes output missing %q", want)
		}
	}
}

func TestScenariosCommand(t *testing.T) {
	out, err := capture(t, "scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "shortage-2021") {
		t.Errorf("scenarios output: %s", out)
	}
}

func TestDesignsCommand(t *testing.T) {
	out, err := capture(t, "designs")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a11", "zen2", "raven", "chipA"} {
		if !strings.Contains(out, want) {
			t.Errorf("designs output missing %q", want)
		}
	}
}

func TestTTMCommand(t *testing.T) {
	out, err := capture(t, "ttm", "-design", "a11", "-node", "28", "-n", "10e6")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tapeout", "fabrication", "packaging", "TTM", "critical: 28nm"} {
		if !strings.Contains(out, want) {
			t.Errorf("ttm output missing %q:\n%s", want, out)
		}
	}
}

func TestTTMWithScenario(t *testing.T) {
	out, err := capture(t, "ttm", "-design", "zen2", "-scenario", "shortage-2021")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "queue") {
		t.Errorf("scenario conditions not echoed:\n%s", out)
	}
	if _, err := capture(t, "ttm", "-scenario", "bogus"); err == nil {
		t.Error("unknown scenario should error")
	}
}

func TestCASCommand(t *testing.T) {
	out, err := capture(t, "cas", "-design", "zen2", "-n", "10e6")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CAS =") || !strings.Contains(out, "∂TTM") {
		t.Errorf("cas output:\n%s", out)
	}
	curve, err := capture(t, "cas", "-design", "a11", "-node", "7", "-curve")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(curve, "20%") || !strings.Contains(curve, "100%") {
		t.Errorf("cas curve output:\n%s", curve)
	}
}

func TestCASCommandNodeOrder(t *testing.T) {
	// The derivatives print in the design's node order (oldest first),
	// not in map order: zen2's 12 nm I/O die before its 7 nm compute
	// dies, on every run.
	for i := 0; i < 20; i++ {
		out, err := capture(t, "cas", "-design", "zen2")
		if err != nil {
			t.Fatal(err)
		}
		i12, i7 := strings.Index(out, "μ_W(12nm)"), strings.Index(out, "μ_W(7nm)")
		if i12 < 0 || i7 < 0 || i12 > i7 {
			t.Fatalf("run %d: derivatives out of node order:\n%s", i, out)
		}
	}
}

func TestCostCommand(t *testing.T) {
	out, err := capture(t, "cost", "-design", "raven", "-n", "1e8")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mask sets", "wafers", "per chip", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("cost output missing %q:\n%s", want, out)
		}
	}
	// A negative chip count fails as the ttm command does instead of
	// pricing negative packaging.
	if _, err := capture(t, "cost", "-design", "zen2", "-n", "-1e6"); err == nil ||
		!strings.Contains(err.Error(), "negative chip count") {
		t.Errorf("cost -n -1e6: err = %v", err)
	}
}

func TestSenseCommand(t *testing.T) {
	out, err := capture(t, "sense", "-design", "a11", "-node", "5", "-samples", "32")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NUT") || !strings.Contains(out, "S_T") {
		t.Errorf("sense output:\n%s", out)
	}
}

func TestFigureAndTableCommands(t *testing.T) {
	out, err := capture(t, "figure", "3", "-fast")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 3") {
		t.Errorf("figure output:\n%s", out)
	}
	out, err = capture(t, "table", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 2") {
		t.Errorf("table output:\n%s", out)
	}
	if _, err := capture(t, "figure", "99"); err == nil {
		t.Error("unknown figure should error")
	}
	if _, err := capture(t, "figure"); err == nil {
		t.Error("missing id should error")
	}
}

func TestFabsimCommand(t *testing.T) {
	out, err := capture(t, "fabsim", "-node", "28", "-wafers", "10000", "-disrupt", "1:0.5,3:1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "last lot packaged") {
		t.Errorf("fabsim output:\n%s", out)
	}
	for _, bad := range [][]string{
		{"fabsim", "-disrupt", "oops"},
		{"fabsim", "-disrupt", "x:1"},
		{"fabsim", "-disrupt", "1:y"},
		{"fabsim", "-node", "nope"},
	} {
		if _, err := capture(t, bad...); err == nil {
			t.Errorf("%v should error", bad)
		}
	}
}

func TestDispatchErrors(t *testing.T) {
	if _, err := capture(t); err == nil {
		t.Error("no args should error")
	}
	if _, err := capture(t, "bogus"); err == nil {
		t.Error("unknown subcommand should error")
	}
	if _, err := capture(t, "ttm", "-design", "nope"); err == nil {
		t.Error("unknown design should error")
	}
	if _, err := capture(t, "ttm", "-node", "nope"); err == nil {
		t.Error("bad node should error")
	}
	if _, err := capture(t, "help"); err != nil {
		t.Error("help should succeed")
	}
}

func TestLookupDesignAll(t *testing.T) {
	for _, name := range []string{"a11", "zen2", "ariane16", "raven", "chipA", "chipB", "ZEN2"} {
		d, err := ttmcas.DesignAt(name, "")
		if err != nil {
			t.Errorf("DesignAt(%q): %v", name, err)
			continue
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%q invalid: %v", name, err)
		}
	}
}

func TestNodeDBExportRoundTrip(t *testing.T) {
	out, err := capture(t, "nodes", "-export")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wafer_rate_kw_per_month") {
		t.Fatalf("export schema missing:\n%s", out)
	}
	dir := t.TempDir()
	path := dir + "/nodes.json"
	if err := os.WriteFile(path, []byte(out), 0o600); err != nil {
		t.Fatal(err)
	}
	// Evaluating against the exported database must match the default.
	def, err := capture(t, "ttm", "-design", "a11", "-node", "28")
	if err != nil {
		t.Fatal(err)
	}
	custom, err := capture(t, "ttm", "-design", "a11", "-node", "28", "-nodedb", path)
	if err != nil {
		t.Fatal(err)
	}
	if def != custom {
		t.Error("exported database should reproduce default results")
	}
	if _, err := capture(t, "ttm", "-nodedb", dir+"/missing.json"); err == nil {
		t.Error("missing database file should error")
	}
}

func TestCompareCommand(t *testing.T) {
	out, err := capture(t, "compare", "-design", "a11", "-nodes", "28,14,7", "-n", "10e6")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A11@28nm", "A11@14nm", "A11@7nm", "per chip"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	out, err = capture(t, "compare", "-designs", "zen2, raven")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "zen2") || !strings.Contains(out, "raven") {
		t.Errorf("designs comparison missing rows:\n%s", out)
	}
	for _, bad := range [][]string{
		{"compare"},
		{"compare", "-nodes", "nope"},
		{"compare", "-designs", "nope"},
	} {
		if _, err := capture(t, bad...); err == nil {
			t.Errorf("%v should error", bad)
		}
	}
}

func TestFigureSVGOutput(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, "figure", "9", "-fast", "-svg", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig9-cas.svg") {
		t.Errorf("svg path not reported:\n%s", out)
	}
	data, err := os.ReadFile(dir + "/fig9-cas.svg")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("written file is not SVG")
	}
	// Tables report "no chart panels" without failing.
	if _, err := capture(t, "table", "2", "-svg", dir); err != nil {
		t.Errorf("table with -svg should not error: %v", err)
	}
}

func TestPlanCommand(t *testing.T) {
	out, err := capture(t, "plan", "-design", "raven", "-n", "1e8", "-deadline", "25", "-multi=false")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "recommended plan") || !strings.Contains(out, "ranked plans") {
		t.Errorf("plan output:\n%s", out)
	}
	// Impossible constraints still print the nearest candidates.
	out, err = capture(t, "plan", "-design", "raven", "-n", "1e8", "-deadline", "1", "-multi=false")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no plan satisfies") {
		t.Errorf("infeasible plan output:\n%s", out)
	}
	if _, err := capture(t, "plan", "-design", "nope"); err == nil {
		t.Error("unknown design should error")
	}
}

func TestBreakEvenCommand(t *testing.T) {
	out, err := capture(t, "breakeven", "-design", "a11", "-a", "28", "-b", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "break-even at") && !strings.Contains(out, "no break-even") {
		t.Errorf("breakeven output:\n%s", out)
	}
	if !strings.Contains(out, "NRE (fixed)") {
		t.Errorf("cost structure table missing:\n%s", out)
	}
	if _, err := capture(t, "breakeven", "-a", "nope"); err == nil {
		t.Error("bad node should error")
	}
	if _, err := capture(t, "breakeven", "-design", "nope"); err == nil {
		t.Error("bad design should error")
	}
}
