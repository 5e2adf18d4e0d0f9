package yield

import (
	"fmt"
	"math"

	"ttmcas/internal/units"
)

// Binning and core salvage. Section 2.1 of the paper notes that
// customers "may choose to separate chips by their performance
// characteristics or defects, commonly known as binning". For
// multicore dies the dominant defect-binning mechanism is core
// salvage: a die whose shared logic works and at least m of its k
// identical cores work is sold into a lower bin instead of scrapped
// (AMD sells 6-core Zen dies cut from 8-core CCDs this way). Salvage
// raises the effective die yield, which flows straight into the wafer
// counts of Eqs. 5 and 7.
//
// The model splits the die into a shared region (uncore, I/O — any
// defect kills the die) and k equal core slices (defects kill only
// that core), treats region survival as independent, and uses the
// configured yield family per region. Independence is optimistic under
// clustering (a cluster spanning two cores counts twice); the
// negative-binomial per-region law keeps the per-region math exact and
// the composition error second-order.

// Salvage describes a core-salvage binning scheme.
type Salvage struct {
	// Cores is the number of identical core slices (k ≥ 1).
	Cores int
	// MinGoodCores is the lowest sellable bin (1 ≤ m ≤ k). m = k means
	// no salvage: every core must work.
	MinGoodCores int
	// CoreAreaFraction is the fraction of the die occupied by the core
	// slices collectively, in (0, 1]; the remainder is shared logic.
	CoreAreaFraction float64
}

// Validate checks the scheme's structural constraints.
func (s Salvage) Validate() error {
	switch {
	case s.Cores < 1:
		return fmt.Errorf("yield: salvage needs at least one core, got %d", s.Cores)
	case s.MinGoodCores < 1 || s.MinGoodCores > s.Cores:
		return fmt.Errorf("yield: min good cores %d outside [1, %d]", s.MinGoodCores, s.Cores)
	case s.CoreAreaFraction <= 0 || s.CoreAreaFraction > 1:
		return fmt.Errorf("yield: core area fraction %v outside (0, 1]", s.CoreAreaFraction)
	}
	return nil
}

// SalvageYield returns the fraction of dies sellable into any bin ≥
// MinGoodCores: P(shared region good) · P(at least m of k cores good).
func SalvageYield(p Params, s Salvage) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	shared, coreY := regionYields(p, s)
	tail := 0.0
	for j := s.MinGoodCores; j <= s.Cores; j++ {
		tail += binomialPMF(s.Cores, j, coreY)
	}
	return shared * tail, nil
}

// regionYields splits the die and evaluates the per-region yields.
func regionYields(p Params, s Salvage) (shared, perCore float64) {
	coreArea := units.MM2(float64(p.Area) * s.CoreAreaFraction / float64(s.Cores))
	sharedArea := units.MM2(float64(p.Area) * (1 - s.CoreAreaFraction))
	mk := func(a units.MM2) float64 {
		return Yield(Params{Area: a, D0: p.D0, Alpha: p.Alpha, Model: p.Model})
	}
	return mk(sharedArea), mk(coreArea)
}

// binomialPMF returns C(n, k)·p^k·(1−p)^(n−k), computed in log space
// for stability at large core counts.
func binomialPMF(n, k int, p float64) float64 {
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lchoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
	return math.Exp(lg)
}

// lchoose returns ln C(n, k) via log-gamma.
func lchoose(n, k int) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}
