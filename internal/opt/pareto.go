package opt

// Pareto-front extraction over cache design points. The paper's Fig. 5
// frames cache selection as a two-objective problem (IPC/TTM vs
// IPC/cost); the underlying decision is really three-objective —
// maximize IPC, minimize TTM, minimize cost — and the non-dominated
// set is what an architect should shortlist before applying either
// ratio metric.

// dominates reports whether a is at least as good as b on every
// objective and strictly better on at least one (IPC ↑, TTM ↓, cost ↓).
func dominates(a, b CachePoint) bool {
	if a.IPC < b.IPC || a.TTM > b.TTM || a.Cost > b.Cost {
		return false
	}
	return a.IPC > b.IPC || a.TTM < b.TTM || a.Cost < b.Cost
}

// ParetoFront returns the non-dominated subset of points, preserving
// input order. Duplicated objective vectors are all kept (none
// dominates the other).
func ParetoFront(points []CachePoint) []CachePoint {
	var front []CachePoint
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front
}
