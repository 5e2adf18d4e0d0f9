package scenario

import (
	"math"
	"testing"

	"ttmcas/internal/technode"
)

func TestA11Composition(t *testing.T) {
	d := A11()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	die := d.Dies[0]
	if got := float64(die.TotalTransistors()); math.Abs(got-4.3e9) > 1e6 {
		t.Errorf("A11 NTT = %v, want 4.3e9", got)
	}
	if got := float64(die.UniqueTransistors()); math.Abs(got-514e6) > 1e6 {
		t.Errorf("A11 NUT = %v, want 514e6", got)
	}
	if die.Node != technode.N10 {
		t.Errorf("A11 node = %v, want 10nm", die.Node)
	}
	if d.Team() != 100 {
		t.Errorf("A11 team = %d, want 100", d.Team())
	}
	p := technode.MustLookup(technode.N10)
	if a := die.Area(p); a < 85 || a > 91 {
		t.Errorf("A11 area = %.1f mm², want ~88", float64(a))
	}
}

func TestA11Retarget(t *testing.T) {
	d := A11At(technode.N28)
	if d.Dies[0].Node != technode.N28 {
		t.Error("retarget failed")
	}
	if got := float64(d.Dies[0].UniqueTransistors()); math.Abs(got-514e6) > 1e6 {
		t.Errorf("retarget changed NUT: %v", got)
	}
}

func TestArianeCacheScaling(t *testing.T) {
	smallCfg := ArianeConfig{Cores: 16, ICacheKB: 1, DCacheKB: 1}
	bigCfg := ArianeConfig{Cores: 16, ICacheKB: 1024, DCacheKB: 1024}
	small := smallCfg.Design()
	big := bigCfg.Design()
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
	if big.Dies[0].TotalTransistors() <= small.Dies[0].TotalTransistors() {
		t.Error("bigger caches should mean more transistors")
	}
	// Caches are pre-verified SRAM: unique counts must match.
	if big.Dies[0].UniqueTransistors() != small.Dies[0].UniqueTransistors() {
		t.Error("cache size must not change tapeout load")
	}
	// 2 MB of cache at 6T/bit ≈ 100M transistors per core.
	perCore := CacheTransistors(1024)
	want := 1024.0 * 1024 * 8 * 6 * 1.2
	if math.Abs(float64(perCore)-want) > 1 {
		t.Errorf("CacheTransistors(1MB) = %v, want %v", float64(perCore), want)
	}
}

func TestArianeDefaults(t *testing.T) {
	d := ArianeConfig{ICacheKB: 16, DCacheKB: 32}.Design()
	if d.Dies[0].Node != technode.N14 {
		t.Error("default node should be 14nm")
	}
	// Default 16 cores: 16 × core + uncore.
	wantUnique := float64(arianeCoreLogic) + float64(arianeUncoreLogic)
	if got := float64(d.Dies[0].UniqueTransistors()); math.Abs(got-wantUnique) > 1 {
		t.Errorf("unique = %v, want %v", got, wantUnique)
	}
}

func TestZen2Table4(t *testing.T) {
	d := Zen2()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.DiesPerPackage() != 3 {
		t.Errorf("Zen2 dies/package = %d, want 3", d.DiesPerPackage())
	}
	nodes := d.Nodes()
	if len(nodes) != 2 {
		t.Errorf("Zen2 nodes = %v", nodes)
	}
	for _, die := range d.Dies {
		switch die.Name {
		case "compute":
			if die.NTT != 3.8e9 || die.NUT != 475e6 || die.AreaOverride != 74 {
				t.Errorf("compute die = %+v", die)
			}
		case "io":
			if die.NTT != 2.1e9 || die.NUT != 523e6 || die.AreaOverride != 125 {
				t.Errorf("io die = %+v", die)
			}
		}
	}
}

func TestZen2Variants(t *testing.T) {
	all7 := Zen2Chiplet(technode.N7)
	for _, die := range all7.Dies {
		if die.Node != technode.N7 {
			t.Errorf("all-7nm variant has die at %v", die.Node)
		}
		if die.AreaOverride != 0 {
			t.Error("retargeted dies should re-derive area")
		}
	}
	mono := Zen2Monolithic(technode.N7)
	if len(mono.Dies) != 1 {
		t.Errorf("monolithic dies = %d", len(mono.Dies))
	}
	if got := float64(mono.Dies[0].NTT); math.Abs(got-9.7e9) > 1e6 {
		t.Errorf("monolithic NTT = %v, want 2×3.8e9 + 2.1e9", got)
	}
}

func TestRavenSmallDie(t *testing.T) {
	d := RavenConfig{}.Design()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	p := technode.MustLookup(technode.N180)
	a := d.Dies[0].Area(p)
	if a < 1 {
		t.Errorf("Raven area = %v, must respect 1 mm² minimum", float64(a))
	}
	if d.Dies[0].TotalTransistors() > 50e6 {
		t.Error("Raven should be a small microcontroller-class design")
	}
}

func TestChipAVsChipB(t *testing.T) {
	a, b := ChipA(), ChipB()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Chip A must demand more wafer area per chip than Chip B (bigger
	// die on a lower-density node).
	pa := technode.MustLookup(a.Dies[0].Node)
	pb := technode.MustLookup(b.Dies[0].Node)
	if a.Dies[0].Area(pa) <= b.Dies[0].Area(pb) {
		t.Error("Chip A should have the larger die")
	}
}
