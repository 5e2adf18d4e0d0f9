package technode

import (
	"fmt"
	"testing"

	"ttmcas/internal/units"
)

func TestTable2Rates(t *testing.T) {
	// Table 2 of the paper, in kilo-wafers per month.
	want := map[Node]float64{
		N250: 41, N180: 241, N130: 120, N90: 79, N65: 189, N40: 284,
		N28: 350, N20: 0, N14: 281, N10: 0, N7: 252, N5: 97,
	}
	for node, kw := range want {
		p := MustLookup(node)
		if got := p.WaferRate.KWPMValue(); got < kw-0.01 || got > kw+0.01 {
			t.Errorf("rate(%s) = %.2f kw/mo, want %v", node, got, kw)
		}
	}
}

func TestAllOrderedOldestFirst(t *testing.T) {
	ns := All()
	if len(ns) != 12 {
		t.Fatalf("len(All) = %d, want 12", len(ns))
	}
	if ns[0] != N250 || ns[len(ns)-1] != N5 {
		t.Errorf("All() = %v, want 250nm..5nm", ns)
	}
	for i := 1; i < len(ns); i++ {
		if ns[i] >= ns[i-1] {
			t.Errorf("All() not strictly shrinking at %d: %v", i, ns)
		}
	}
}

func TestProducingExcludesIdleNodes(t *testing.T) {
	for _, n := range Producing() {
		if n == N20 || n == N10 {
			t.Errorf("%s should not be producing (0%% of 2022 revenue)", n)
		}
	}
	if len(Producing()) != 10 {
		t.Errorf("len(Producing) = %d, want 10", len(Producing()))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup(Node(3)); err == nil {
		t.Error("unknown node should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup(unknown) should panic")
		}
	}()
	MustLookup(Node(3))
}

func TestMonotoneColumns(t *testing.T) {
	// Structural invariants of the calibrated database as a node
	// advances: density rises, tapeout effort rises, defect density
	// does not fall, foundry latency does not fall, wafer cost rises,
	// mask cost rises, package effort falls, testing effort rises.
	ns := All()
	for i := 1; i < len(ns); i++ {
		prev, cur := MustLookup(ns[i-1]), MustLookup(ns[i])
		if cur.Density <= prev.Density {
			t.Errorf("density not increasing at %s", cur.Node)
		}
		if cur.TapeoutEffort <= prev.TapeoutEffort {
			t.Errorf("tapeout effort not increasing at %s", cur.Node)
		}
		if cur.DefectDensity < prev.DefectDensity {
			t.Errorf("defect density decreasing at %s", cur.Node)
		}
		if cur.FabLatency < prev.FabLatency {
			t.Errorf("fab latency decreasing at %s", cur.Node)
		}
		if cur.WaferCost <= prev.WaferCost {
			t.Errorf("wafer cost not increasing at %s", cur.Node)
		}
		if cur.MaskSetCost <= prev.MaskSetCost {
			t.Errorf("mask cost not increasing at %s", cur.Node)
		}
		if cur.PackageEffort >= prev.PackageEffort {
			t.Errorf("package effort not decreasing at %s", cur.Node)
		}
		if cur.TestingEffort <= prev.TestingEffort {
			t.Errorf("testing effort not increasing at %s", cur.Node)
		}
	}
}

func TestDensityAnchors(t *testing.T) {
	// The paper's chip-derived density anchors.
	a11 := MustLookup(N10).Area(4.3e9)
	if a11 < 85 || a11 > 91 {
		t.Errorf("A11 area at 10nm = %.1f mm², want ~88", float64(a11))
	}
	zen2io := MustLookup(N14).Area(2.1e9)
	if zen2io < 110 || zen2io > 120 {
		t.Errorf("Zen2 IO area at 14nm-class = %.1f mm², want ~114 (paper reports 125 from source)", float64(zen2io))
	}
}

func TestFabLatencyRange(t *testing.T) {
	// Section 5: 12 weeks at legacy nodes up to 20 weeks at 5 nm.
	if MustLookup(N250).FabLatency != 12 || MustLookup(N28).FabLatency != 12 {
		t.Error("legacy fab latency should be 12 weeks")
	}
	if MustLookup(N5).FabLatency != 20 {
		t.Error("5nm fab latency should be 20 weeks")
	}
	for _, n := range All() {
		if MustLookup(n).TAPLatency != 6 {
			t.Errorf("TAP latency at %s should be 6 weeks", n)
		}
	}
}

func TestParse(t *testing.T) {
	for _, s := range []string{"28nm", "28"} {
		n, err := Parse(s)
		if err != nil || n != N28 {
			t.Errorf("Parse(%q) = %v, %v", s, n, err)
		}
	}
	for _, s := range []string{"", "abc", "3nm"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should error", s)
		}
	}
}

// sscanfParse is the fmt-based Parse that the hand-written scanner
// replaced, kept as its oracle.
func sscanfParse(s string) (Node, error) {
	var v int
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return 0, fmt.Errorf("technode: cannot parse node %q", s)
	}
	if _, ok := table[Node(v)]; !ok {
		return 0, fmt.Errorf("technode: unknown process node %q", s)
	}
	return Node(v), nil
}

// FuzzParse holds Parse to fmt.Sscanf("%d") on value and error. The
// seeds run in every plain go test; go test -fuzz FuzzParse explores
// further.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"28nm", "28", " 7nm", "+7", "7 nm", "", "-7", "99999999999999999999",
		"9223372036854775807", "-9223372036854775808", "12nm", "0", "007",
		"\t\r\v\f 14", "\n7", "\r\n7", "\u00a05", "\u30005", "\xe3\x805",
		"+", "-", "+-7", "1_0", "7\n", "nm7", "\u20285",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := Parse(s)
		want, wantErr := sscanfParse(s)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Parse(%q) = %v, %v; Sscanf reference %v, %v", s, got, gotErr, want, wantErr)
		}
	})
}

func TestNodeString(t *testing.T) {
	want := map[Node]string{
		N250: "250nm", N180: "180nm", N130: "130nm", N90: "90nm", N65: "65nm",
		N40: "40nm", N28: "28nm", N20: "20nm", N14: "14nm", N12: "12nm",
		N10: "10nm", N7: "7nm", N5: "5nm",
	}
	for _, n := range append(All(), Variants()...) {
		if _, ok := want[n]; !ok {
			t.Errorf("database node %d missing from the table", int(n))
		}
	}
	want[Node(3)] = "3nm" // unknown to the database
	for n, s := range want {
		if got := n.String(); got != s || got != fmt.Sprintf("%dnm", int(n)) {
			t.Errorf("Node(%d).String() = %q, want %q", int(n), got, s)
		}
	}
}

func TestAreaHelper(t *testing.T) {
	p := MustLookup(N7)
	got := p.Area(units.Transistors(5.53e9))
	if got < 99 || got > 101 {
		t.Errorf("Area(5.53B @7nm) = %v, want ~100", float64(got))
	}
}
