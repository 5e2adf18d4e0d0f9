package core_test

import (
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// The kernel benchmarks pin the compiled evaluator's claim: a per-call
// evaluation runs the full TTM model with zero allocations.
// BenchmarkModelEvaluate is the one-shot cost a caller without a cached
// Evaluator pays — Model.TTM, which is a Compile plus one evaluation —
// and BenchmarkEvaluatorEval the per-evaluation cost once compiled.
// bench.sh records both so a regression in either shows up in
// BENCH_jobs.json.

var benchPert = core.Perturbation{NTT: 1.05, NUT: 0.95, D0: 1.1, Rate: 0.9, FabLatency: 1.02, TAPLatency: 1.01}

func BenchmarkModelEvaluate(b *testing.B) {
	m := core.Model{Perturb: benchPert}
	d := scenario.A11At(technode.N28)
	c := market.Full().WithQueueAll(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.TTM(d, 10e6, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorEval(b *testing.B) {
	m := core.Model{}
	ev, err := m.Compile(scenario.A11At(technode.N28), 10e6, market.Full().WithQueueAll(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalChipsAtCapacity(benchPert, 10e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorCAS(b *testing.B) {
	m := core.Model{}
	ev, err := m.Compile(scenario.Zen2(), 10e6, market.Full().WithQueueAll(4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.CASChipsAtCapacity(benchPert, 10e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatch builds a column batch of n copies of the benchmark
// perturbation with a little per-sample spread, the shape the MC and
// Sobol drivers feed EvalBatch.
func benchBatch(n int) *core.Batch {
	b := &core.Batch{
		NTT: make([]float64, n), NUT: make([]float64, n), D0: make([]float64, n),
		Rate: make([]float64, n), FabLatency: make([]float64, n), TAPLatency: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		j := 1 + 0.0001*float64(i%16)
		b.NTT[i], b.NUT[i], b.D0[i] = benchPert.NTT*j, benchPert.NUT, benchPert.D0*j
		b.Rate[i], b.FabLatency[i], b.TAPLatency[i] = benchPert.Rate, benchPert.FabLatency*j, benchPert.TAPLatency
	}
	return b
}

func BenchmarkEvaluatorEvalBatch(b *testing.B) {
	m := core.Model{}
	ev, err := m.Compile(scenario.A11At(technode.N28), 10e6, market.Full().WithQueueAll(4))
	if err != nil {
		b.Fatal(err)
	}
	const n = 1024
	batch := benchBatch(n)
	out := make([]units.Weeks, n)
	var errs core.BatchErrors
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvalBatch(batch, out, &errs); err != nil {
			b.Fatal(err)
		}
		if errs.Len() != 0 {
			b.Fatal("unexpected sample errors")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}

func BenchmarkEvaluatorCASBatch(b *testing.B) {
	m := core.Model{}
	ev, err := m.Compile(scenario.Zen2(), 10e6, market.Full().WithQueueAll(4))
	if err != nil {
		b.Fatal(err)
	}
	const n = 256
	batch := benchBatch(n)
	out := make([]float64, n)
	var errs core.BatchErrors
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.CASBatch(batch, out, &errs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
}

// TestBatchAllocs pins the steady-state zero-allocation contract of the
// batch entry points, including the Sobol inner-loop shape (an A-matrix
// column batch with one column swapped to B) and the Global-column and
// CAS forms the MC band driver uses. Each call takes its scratch from a
// package pool, which the race detector randomly drops puts to, so the
// contract is checked without -race only.
func TestBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; allocation counts are meaningless")
	}
	m := core.Model{}
	for dname, d := range registeredDesigns() {
		ev, err := m.Compile(d, 10e6, market.Full().WithQueueAll(4))
		if err != nil {
			t.Fatal(err)
		}
		const n = 256
		batch := benchBatch(n)
		wout := make([]units.Weeks, n)
		cout := make([]float64, n)
		var errs core.BatchErrors
		// Warm the pooled scratch once.
		if err := ev.EvalBatch(batch, wout, &errs); err != nil {
			t.Fatal(err)
		}
		if err := ev.CASBatch(batch, cout, &errs); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := ev.EvalBatch(batch, wout, &errs); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: EvalBatch allocates %v/op, want 0", dname, a)
		}
		at := *batch
		at.Global = make([]float64, n)
		for i := range at.Global {
			at.Global[i] = 0.5
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := ev.EvalBatch(&at, wout, &errs); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: EvalBatch with a Global column allocates %v/op, want 0", dname, a)
		}
		if a := testing.AllocsPerRun(10, func() {
			if err := ev.CASBatch(batch, cout, &errs); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: CASBatch allocates %v/op, want 0", dname, a)
		}
		// Sobol inner loop: column-substituted Saltelli batch.
		bcol := benchBatch(n)
		swapped := *batch
		swapped.Rate = bcol.NTT
		if a := testing.AllocsPerRun(20, func() {
			if err := ev.EvalBatch(&swapped, wout, &errs); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: EvalBatch (Sobol column swap) allocates %v/op, want 0", dname, a)
		}
	}
}
