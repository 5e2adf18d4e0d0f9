package jobs

import (
	"testing"

	"ttmcas"
)

// BenchmarkSweepCellEval is one sweep job cell: Zen 2 re-targeted to
// 7 nm at 10 M chips under full capacity — TTM, CAS and cost.
func BenchmarkSweepCellEval(b *testing.B) {
	eval := sweepCellEval(ttmcas.Zen2(), ttmcas.Conditions{})
	cell := gridCell{node: ttmcas.N7, q: 1e7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval(cell); err != nil {
			b.Fatal(err)
		}
	}
}
