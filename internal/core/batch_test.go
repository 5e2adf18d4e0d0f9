package core_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/cost"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

// The batch kernel must be indistinguishable from the per-call compiled
// path: same float64 bits per sample, and per-sample failures carrying
// the exact error values Eval would return, reported through the
// compact index list. These tests hold that across every design ×
// scenario × model variant, for the condition-column path, and for the
// degenerate batch shapes (empty, len-1, ragged).

// columns converts a perturbation cloud to the structure-of-arrays form.
func columns(perts []core.Perturbation) *core.Batch {
	b := &core.Batch{
		NTT:        make([]float64, len(perts)),
		NUT:        make([]float64, len(perts)),
		D0:         make([]float64, len(perts)),
		Rate:       make([]float64, len(perts)),
		FabLatency: make([]float64, len(perts)),
		TAPLatency: make([]float64, len(perts)),
	}
	for i, p := range perts {
		b.NTT[i], b.NUT[i], b.D0[i] = p.NTT, p.NUT, p.D0
		b.Rate[i], b.FabLatency[i], b.TAPLatency[i] = p.Rate, p.FabLatency, p.TAPLatency
	}
	return b
}

// batchErrAt returns the recorded error for sample s, or nil.
func batchErrAt(errs *core.BatchErrors, s int) error {
	for i, idx := range errs.Idx {
		if idx == s {
			return errs.Errs[i]
		}
	}
	return nil
}

func TestEvalBatchMatchesEvalBitForBit(t *testing.T) {
	perts := perturbations(11, 24)
	b := columns(perts)
	out := make([]units.Weeks, len(perts))
	var errs core.BatchErrors
	const chips = 10e6
	for mname, m := range modelVariants() {
		for dname, d := range registeredDesigns() {
			for _, sc := range market.Scenarios() {
				ev, err := m.Compile(d, chips, sc.Conditions)
				if err != nil {
					t.Fatalf("%s/%s/%s: Compile: %v", mname, dname, sc.Name, err)
				}
				if err := ev.EvalBatch(b, out, &errs); err != nil {
					t.Fatalf("%s/%s/%s: EvalBatch: %v", mname, dname, sc.Name, err)
				}
				ref := ev.Clone()
				for i, p := range perts {
					want, wantErr := evalTTM(ref, p, chips)
					sameWeeks(t, fmt.Sprintf("%s/%s/%s sample %d", mname, dname, sc.Name, i),
						out[i], want, batchErrAt(&errs, i), wantErr)
				}
			}
		}
	}
}

func TestCASBatchMatchesCASBitForBit(t *testing.T) {
	perts := perturbations(12, 12)
	b := columns(perts)
	out := make([]float64, len(perts))
	var errs core.BatchErrors
	const chips = 10e6
	m := core.Model{}
	for dname, d := range registeredDesigns() {
		for _, sc := range market.Scenarios() {
			ev, err := m.Compile(d, chips, sc.Conditions)
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.CASBatch(b, out, &errs); err != nil {
				t.Fatal(err)
			}
			ref := ev.Clone()
			for i, p := range perts {
				want, wantErr := evalCAS(ref, p)
				sameValue(t, fmt.Sprintf("%s/%s sample %d", dname, sc.Name, i),
					out[i], want, batchErrAt(&errs, i), wantErr)
			}
		}
	}
}

// atCapacity returns b with every sample at global capacity g, as a
// Global column.
func atCapacity(b *core.Batch, n int, g float64) *core.Batch {
	out := *b
	out.Global = make([]float64, n)
	for i := range out.Global {
		out.Global[i] = g
	}
	return &out
}

func TestBatchAtCapacityMatchesPerCall(t *testing.T) {
	perts := perturbations(13, 8)
	wout := make([]units.Weeks, len(perts))
	cout := make([]float64, len(perts))
	var errs core.BatchErrors
	m := core.Model{}
	for dname, d := range registeredDesigns() {
		ev, err := m.Compile(d, 10e6, market.Full())
		if err != nil {
			t.Fatal(err)
		}
		ref := ev.Clone()
		for _, g := range []float64{0.05, 0.3, 0.75, 1.0} {
			b := atCapacity(columns(perts), len(perts), g)
			if err := ev.EvalBatch(b, wout, &errs); err != nil {
				t.Fatal(err)
			}
			for i, p := range perts {
				want, wantErr := ref.EvalChipsAtCapacity(p, 10e6, g)
				sameWeeks(t, fmt.Sprintf("%s ttm@%v sample %d", dname, g, i),
					wout[i], want, batchErrAt(&errs, i), wantErr)
			}
			if err := ev.CASBatch(b, cout, &errs); err != nil {
				t.Fatal(err)
			}
			for i, p := range perts {
				want, wantErr := ref.CASChipsAtCapacity(p, 10e6, g)
				sameValue(t, fmt.Sprintf("%s cas@%v sample %d", dname, g, i),
					cout[i], want, batchErrAt(&errs, i), wantErr)
			}
		}
	}
}

func TestBatchChipsColumnMatchesEvalChips(t *testing.T) {
	m := core.Model{}
	d := scenario.Zen2()
	ev, err := m.Compile(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	chips := []float64{0, 1, 1e3, 5e6, 40e6, -3, 10e6}
	b := &core.Batch{Chips: chips}
	out := make([]units.Weeks, len(chips))
	var errs core.BatchErrors
	if err := ev.EvalBatch(b, out, &errs); err != nil {
		t.Fatal(err)
	}
	ref := ev.Clone()
	for i, n := range chips {
		want, wantErr := evalTTM(ref, core.Perturbation{}, n)
		sameWeeks(t, fmt.Sprintf("chips %v", n), out[i], want, batchErrAt(&errs, i), wantErr)
	}
	if idx, err := errs.First(); idx != 5 || err == nil || !strings.Contains(err.Error(), "negative chip count") {
		t.Fatalf("First() = (%d, %v), want the negative-chips failure at index 5", idx, err)
	}
}

// TestSetConditionsMatchesCompile pins the condition-column path the
// timeline driver uses: one evaluator compiled at the baseline, with
// per-sample Global/Factor/Queue columns filled via SetConditions, must
// reproduce an evaluator compiled directly at each sample's conditions.
func TestSetConditionsMatchesCompile(t *testing.T) {
	m := core.Model{}
	scenarios := market.Scenarios()
	perts := []core.Perturbation{{}, {Rate: 0.8, FabLatency: 1.3}}
	for dname, d := range registeredDesigns() {
		ev, err := m.Compile(d, 10e6, scenarios[0].Conditions)
		if err != nil {
			t.Fatal(err)
		}
		b := &core.Batch{}
		ev.ResizeConditions(b, len(scenarios))
		for s, sc := range scenarios {
			ev.SetConditions(b, s, sc.Conditions)
		}
		for _, p := range perts {
			b.NTT = nil // perturbation applied uniformly below
			pb := *b
			if p != (core.Perturbation{}) {
				n := len(scenarios)
				fill := func(v float64) []float64 {
					col := make([]float64, n)
					for i := range col {
						col[i] = v
					}
					return col
				}
				pb.NTT, pb.NUT, pb.D0 = fill(p.NTT), fill(p.NUT), fill(p.D0)
				pb.Rate, pb.FabLatency, pb.TAPLatency = fill(p.Rate), fill(p.FabLatency), fill(p.TAPLatency)
			}
			wout := make([]units.Weeks, len(scenarios))
			cout := make([]float64, len(scenarios))
			var werrs, cerrs core.BatchErrors
			if err := ev.EvalBatch(&pb, wout, &werrs); err != nil {
				t.Fatal(err)
			}
			if err := ev.CASBatch(&pb, cout, &cerrs); err != nil {
				t.Fatal(err)
			}
			for s, sc := range scenarios {
				ref, err := m.Compile(d, 10e6, sc.Conditions)
				if err != nil {
					t.Fatal(err)
				}
				wantW, wErr := evalTTM(ref, p, 10e6)
				sameWeeks(t, fmt.Sprintf("%s/%s ttm", dname, sc.Name), wout[s], wantW, batchErrAt(&werrs, s), wErr)
				wantC, cErr := evalCAS(ref, p)
				sameValue(t, fmt.Sprintf("%s/%s cas", dname, sc.Name), cout[s], wantC, batchErrAt(&cerrs, s), cErr)
			}
		}
	}
}

// TestEvalBatchErrorIndices drives a mixed batch where some samples
// blow the die past the wafer: the failing index set, the error values
// and the zeroed outputs must all match the per-call path.
func TestEvalBatchErrorIndices(t *testing.T) {
	m := core.Model{}
	d := scenario.A11At(technode.N7)
	ev, err := m.Compile(d, 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	// NTT multipliers: huge values push the die area past the wafer.
	ntt := []float64{1, 1e6, 0.9, 5e5, 1.1, 1e6}
	b := &core.Batch{NTT: ntt}
	out := make([]units.Weeks, len(ntt))
	var errs core.BatchErrors
	if err := ev.EvalBatch(b, out, &errs); err != nil {
		t.Fatal(err)
	}
	ref := ev.Clone()
	failWant := 0
	for i, v := range ntt {
		want, wantErr := evalTTM(ref, core.Perturbation{NTT: v}, 10e6)
		sameWeeks(t, fmt.Sprintf("sample %d", i), out[i], want, batchErrAt(&errs, i), wantErr)
		if wantErr != nil {
			failWant++
			if out[i] != 0 {
				t.Errorf("sample %d: failed sample output = %v, want 0", i, out[i])
			}
		}
	}
	if failWant == 0 {
		t.Fatal("test needs at least one failing sample; NTT blow-up did not fail")
	}
	if errs.Len() != failWant {
		t.Fatalf("errs.Len() = %d, want %d", errs.Len(), failWant)
	}
	if idx, _ := errs.First(); idx != 1 {
		t.Fatalf("First() index = %d, want 1", idx)
	}
}

// TestCASBatchErrorIndices is TestEvalBatchErrorIndices for the CAS
// kernel on a two-node design, whose CAS runs four capacity probes per
// sample: CASBatch, with and without a Global column, and the per-call
// CASChipsAtCapacity must fail the same samples with the same errors,
// the batches recording each failing sample once (not once per probe)
// and zeroing its output.
func TestCASBatchErrorIndices(t *testing.T) {
	m := core.Model{}
	// Zen 2 with die areas derived from the transistor counts, so the
	// NTT multipliers below reach both dies.
	d := scenario.Zen2()
	for i := range d.Dies {
		d.Dies[i].AreaOverride = 0
	}
	const chips = 10e6
	c := market.Full()
	ev, err := m.Compile(d, chips, c)
	if err != nil {
		t.Fatal(err)
	}
	if ev.NodeCount() < 2 {
		t.Fatalf("test needs a multi-node design; %s has %d nodes", d.Name, ev.NodeCount())
	}
	// NTT multipliers: huge values push the die area past the wafer.
	ntt := []float64{1, 1e6, 0.9, 5e5, 1.1, 1e6}
	for _, global := range []float64{0, 0.6} {
		b := &core.Batch{NTT: ntt}
		if global != 0 {
			b = atCapacity(b, len(ntt), global)
		}
		out := make([]float64, len(ntt))
		for i := range out {
			out[i] = -1 // a stale value the batch must overwrite
		}
		var errs core.BatchErrors
		if err := ev.CASBatch(b, out, &errs); err != nil {
			t.Fatal(err)
		}
		ref := ev.Clone()
		failWant := 0
		for i, v := range ntt {
			p := core.Perturbation{NTT: v}
			ctx := fmt.Sprintf("global %v sample %d", global, i)
			want, wantErr := ref.CASChipsAtCapacity(p, chips, global)
			sameValue(t, ctx, out[i], want, batchErrAt(&errs, i), wantErr)
			om := m
			om.Perturb = p
			refCAS, refErr := referenceCAS(om, d, chips, c.AtCapacity(global))
			sameValue(t, ctx+" vs reference", want, refCAS.CAS, wantErr, refErr)
			if wantErr != nil {
				failWant++
				if out[i] != 0 {
					t.Errorf("%s: failed sample output = %v, want 0", ctx, out[i])
				}
			}
		}
		if failWant == 0 {
			t.Fatal("test needs at least one failing sample; NTT blow-up did not fail")
		}
		if errs.Len() != failWant || len(errs.Errs) != failWant {
			t.Fatalf("global %v: errs has %d indices and %d errors, want %d of each", global, errs.Len(), len(errs.Errs), failWant)
		}
		if idx, _ := errs.First(); idx != 1 {
			t.Fatalf("global %v: First() index = %d, want 1", global, idx)
		}
	}
}

// TestBatchShapes fuzzes the degenerate batch shapes: empty, len-1,
// ragged and mismatched outputs.
func TestBatchShapes(t *testing.T) {
	m := core.Model{}
	ev, err := m.Compile(scenario.Zen2(), 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	var errs core.BatchErrors

	// Empty: all-nil batch with empty output is a no-op.
	if err := ev.EvalBatch(&core.Batch{}, nil, &errs); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	// All-nil batch with a non-empty output evaluates the unperturbed
	// point once per slot.
	out := make([]units.Weeks, 3)
	if err := ev.EvalBatch(&core.Batch{}, out, &errs); err != nil {
		t.Fatal(err)
	}
	want, _ := evalTTM(ev.Clone(), core.Perturbation{}, 10e6)
	for i, v := range out {
		if v != want {
			t.Fatalf("all-nil batch out[%d] = %v, want %v", i, v, want)
		}
	}

	// Len-1.
	one := &core.Batch{NTT: []float64{1.05}}
	if err := ev.EvalBatch(one, out[:1], &errs); err != nil {
		t.Fatal(err)
	}
	want, _ = evalTTM(ev.Clone(), core.Perturbation{NTT: 1.05}, 10e6)
	if out[0] != want {
		t.Fatalf("len-1 batch = %v, want %v", out[0], want)
	}

	// Ragged columns are a structural error, not a panic.
	ragged := &core.Batch{NTT: make([]float64, 4), D0: make([]float64, 5)}
	if err := ev.EvalBatch(ragged, make([]units.Weeks, 4), &errs); err == nil {
		t.Fatal("ragged batch: want error")
	}
	raggedF := &core.Batch{Global: make([]float64, 2), Factor: [][]float64{make([]float64, 3), nil}}
	if ev.NodeCount() == 2 {
		if err := ev.EvalBatch(raggedF, make([]units.Weeks, 2), &errs); err == nil {
			t.Fatal("ragged Factor column: want error")
		}
	}

	// Output length mismatch.
	if err := ev.EvalBatch(one, make([]units.Weeks, 2), &errs); err == nil {
		t.Fatal("output length mismatch: want error")
	}
	// Wrong Factor outer length.
	badOuter := &core.Batch{Global: make([]float64, 2), Factor: make([][]float64, ev.NodeCount()+1)}
	if err := ev.EvalBatch(badOuter, make([]units.Weeks, 2), &errs); err == nil {
		t.Fatal("wrong Factor outer length: want error")
	}
	// A nil error sink is structural misuse.
	if err := ev.EvalBatch(one, out[:1], nil); err == nil {
		t.Fatal("nil errs: want error")
	}
}

// TestBatchCloneIndependence: concurrent clones each run batch calls
// with their own pooled scratch, and the per-call methods on their own
// one-sample batch; results match the parent bit for bit. A Clone that
// shared the parent's one-sample batch fails here under -race.
func TestBatchCloneIndependence(t *testing.T) {
	m := core.Model{}
	ev, err := m.Compile(scenario.Zen2(), 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	perts := perturbations(14, 16)
	b := columns(perts)
	wantOut := make([]units.Weeks, len(perts))
	var errs core.BatchErrors
	if err := ev.EvalBatch(b, wantOut, &errs); err != nil {
		t.Fatal(err)
	}
	// The parent's per-call answers, run first so the parent owns a
	// one-sample batch before it is cloned.
	rates := cost.DefaultRates()
	type perCall struct {
		res  core.Result
		cas  core.CASResult
		cost core.CostBreakdown
	}
	perCallAt := func(ev *core.Evaluator, i int) (perCall, error) {
		var pc perCall
		var err error
		if pc.res, err = ev.EvalResultChips(perts[i], 10e6); err != nil {
			return pc, err
		}
		if pc.cas, err = ev.CASResultChips(perts[i], 10e6); err != nil {
			return pc, err
		}
		pc.cost, err = ev.CostChips(rates, 1e6*float64(i+1))
		return pc, err
	}
	want := make([]perCall, len(perts))
	for i := range perts {
		if want[i], err = perCallAt(ev, i); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			cl := ev.Clone()
			out := make([]units.Weeks, len(perts))
			var es core.BatchErrors
			for r := 0; r < 50; r++ {
				if err := cl.EvalBatch(b, out, &es); err != nil {
					done <- err
					return
				}
				for i := range out {
					if out[i] != wantOut[i] {
						done <- fmt.Errorf("clone out[%d] = %v, want %v", i, out[i], wantOut[i])
						return
					}
				}
				for i := range perts {
					got, err := perCallAt(cl, i)
					if err != nil {
						done <- err
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						done <- fmt.Errorf("clone per-call answers for sample %d = %+v, want %+v", i, got, want[i])
						return
					}
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// batchRun is one goroutine's view of every batch entry point on one
// perturbation cloud: TTM and CAS at the compiled conditions and at a
// Global column's capacity, with the per-sample error lists.
type batchRun struct {
	ttm, ttmAt []units.Weeks
	cas, casAt []float64
	errs       [4]core.BatchErrors
}

func runAllBatches(ev *core.Evaluator, b *core.Batch, n int) (*batchRun, error) {
	r := &batchRun{
		ttm: make([]units.Weeks, n), ttmAt: make([]units.Weeks, n),
		cas: make([]float64, n), casAt: make([]float64, n),
	}
	at := atCapacity(b, n, 0.6)
	for _, err := range []error{
		ev.EvalBatch(b, r.ttm, &r.errs[0]),
		ev.EvalBatch(at, r.ttmAt, &r.errs[1]),
		ev.CASBatch(b, r.cas, &r.errs[2]),
		ev.CASBatch(at, r.casAt, &r.errs[3]),
	} {
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// diff reports the first bit-level difference between two runs.
func (r *batchRun) diff(o *batchRun) error {
	for i := range r.ttm {
		switch {
		case math.Float64bits(float64(r.ttm[i])) != math.Float64bits(float64(o.ttm[i])):
			return fmt.Errorf("EvalBatch sample %d: %v vs %v", i, r.ttm[i], o.ttm[i])
		case math.Float64bits(float64(r.ttmAt[i])) != math.Float64bits(float64(o.ttmAt[i])):
			return fmt.Errorf("EvalBatch at capacity sample %d: %v vs %v", i, r.ttmAt[i], o.ttmAt[i])
		case math.Float64bits(r.cas[i]) != math.Float64bits(o.cas[i]):
			return fmt.Errorf("CASBatch sample %d: %v vs %v", i, r.cas[i], o.cas[i])
		case math.Float64bits(r.casAt[i]) != math.Float64bits(o.casAt[i]):
			return fmt.Errorf("CASBatch at capacity sample %d: %v vs %v", i, r.casAt[i], o.casAt[i])
		}
	}
	for k := range r.errs {
		a, b := &r.errs[k], &o.errs[k]
		if a.Len() != b.Len() {
			return fmt.Errorf("call %d: %d sample errors vs %d", k, a.Len(), b.Len())
		}
		for i := range a.Idx {
			if a.Idx[i] != b.Idx[i] || a.Errs[i].Error() != b.Errs[i].Error() {
				return fmt.Errorf("call %d error %d: %d %v vs %d %v", k, i, a.Idx[i], a.Errs[i], b.Idx[i], b.Errs[i])
			}
		}
	}
	return nil
}

// TestBatchSharedEvaluatorConcurrent: the batch entry points keep no
// state on the Evaluator, so eight goroutines running every batch call
// on one shared Evaluator — with batch lengths that differ per
// goroutine, so pooled scratches change hands at different sizes — get
// exactly the bits and errors of a serial run. Run it under
// `go test -race -count=10 ./internal/core` to check the sharing.
func TestBatchSharedEvaluatorConcurrent(t *testing.T) {
	m := core.Model{}
	for dname, d := range registeredDesigns() {
		ev, err := m.Compile(d, 10e6, market.Full().WithQueueAll(2))
		if err != nil {
			t.Fatal(err)
		}
		perts := perturbations(21, 48)
		want := make([]*batchRun, 8)
		batches := make([]*core.Batch, 8)
		for g := range want {
			n := 8 + 5*g
			batches[g] = columns(perts[:n])
			if want[g], err = runAllBatches(ev, batches[g], n); err != nil {
				t.Fatal(err)
			}
		}
		errc := make(chan error, len(want))
		for g := range want {
			go func(g int) {
				for r := 0; r < 20; r++ {
					got, err := runAllBatches(ev, batches[g], len(want[g].ttm))
					if err == nil {
						err = got.diff(want[g])
					}
					if err != nil {
						errc <- fmt.Errorf("%s goroutine %d round %d: %w", dname, g, r, err)
						return
					}
				}
				errc <- nil
			}(g)
		}
		for range want {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
	}
}
