package opt

import (
	"fmt"
	"math"
	"testing"

	"ttmcas/internal/cachesim"
	designpkg "ttmcas/internal/design"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
)

// smallTable builds a coarse IPC table once for the cache tests.
func smallTable(t *testing.T) cachesim.IPCTable {
	t.Helper()
	tbl, err := cachesim.BuildIPCTable(cachesim.SPECLike(), cachesim.CPUModel{}, []int{1, 8, 32, 128, 1024}, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCacheStudyEvaluate(t *testing.T) {
	study := CacheStudy{Table: smallTable(t)}
	pts, err := study.Evaluate(technode.N14, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 25 {
		t.Fatalf("points = %d, want 25", len(pts))
	}
	for _, p := range pts {
		if p.IPC <= 0 || p.TTM <= 0 || p.Cost <= 0 || p.IPCPerTTM <= 0 || p.IPCPerCost <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
	}
	// TTM must grow with total cache capacity (bigger dies).
	var small, large CachePoint
	for _, p := range pts {
		if p.IKB == 1 && p.DKB == 1 {
			small = p
		}
		if p.IKB == 1024 && p.DKB == 1024 {
			large = p
		}
	}
	if large.TTM <= small.TTM {
		t.Errorf("TTM(1MB,1MB)=%v should exceed TTM(1KB,1KB)=%v", large.TTM, small.TTM)
	}
	if large.IPC <= small.IPC {
		t.Error("IPC should grow with cache capacity")
	}
}

func TestBestObjectivesDiffer(t *testing.T) {
	// Fig. 5's headline: the IPC/TTM optimum is not the IPC/cost
	// optimum, and neither is the raw-IPC optimum (which saturates at
	// the largest caches).
	study := CacheStudy{Table: smallTable(t)}
	pts, err := study.Evaluate(technode.N14, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	byTTM, err := Best(pts, MaxIPCPerTTM)
	if err != nil {
		t.Fatal(err)
	}
	byIPC, err := Best(pts, MaxIPC)
	if err != nil {
		t.Fatal(err)
	}
	if byIPC.IKB != 1024 || byIPC.DKB != 1024 {
		t.Errorf("max-IPC config = (%d,%d), want the largest caches", byIPC.IKB, byIPC.DKB)
	}
	if byTTM.IKB == 1024 && byTTM.DKB == 1024 {
		t.Error("IPC/TTM optimum should back off from the largest caches")
	}
	if _, err := Best(nil, MaxIPC); err == nil {
		t.Error("empty points should error")
	}
}

func TestObjectiveString(t *testing.T) {
	if MaxIPCPerTTM.String() != "IPC/TTM" || MaxIPCPerCost.String() != "IPC/cost" || MaxIPC.String() != "IPC" {
		t.Error("objective names wrong")
	}
	if Objective(9).String() == "" {
		t.Error("unknown objective should render")
	}
}

func ravenStudy(step float64) SplitStudy {
	return SplitStudy{
		Factory: func(n technode.Node) designpkg.Design {
			return scenario.RavenConfig{Node: n}.Design()
		},
		Step: step,
	}
}

func TestSingleProcessBaseline(t *testing.T) {
	// A same-node "split" is one design on one line, so its point is
	// exactly core.Model's TTM and CAS — including under scenarios that
	// override the node's capacity, where the CAS probes must straddle
	// the current factor rather than full capacity.
	const n = 1e8
	for name, study := range oracleStudies(0.25) {
		for _, node := range technode.Producing() {
			pt, err := study.singleProcess(node, n)
			if err != nil {
				t.Fatalf("%s %v: %v", name, node, err)
			}
			d := study.Factory(node)
			ttm, err := study.Model.TTM(d, n, study.Conditions)
			if err != nil {
				t.Fatal(err)
			}
			cas, err := study.Model.CAS(d, n, study.Conditions)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(float64(pt.TTM)) != math.Float64bits(float64(ttm)) || pt.FracPrimary != 1 {
				t.Errorf("%s %v: single-process %+v, core TTM %v", name, node, pt, ttm)
			}
			if math.Float64bits(pt.CAS) != math.Float64bits(cas.CAS) {
				t.Errorf("%s %v: split CAS %v != core CAS %v", name, node, pt.CAS, cas.CAS)
			}
		}
	}
}

func TestSplitImprovesTTMForSlowLegacyNode(t *testing.T) {
	// Section 7: for legacy nodes with low wafer rates (250, 130,
	// 90 nm), adding parallel manufacturing on a second process saves
	// weeks of time-to-market.
	study := ravenStudy(0.05)
	single, err := study.singleProcess(technode.N250, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	best, err := study.BestSplit(technode.N250, technode.N180, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if best.TTM >= single.TTM {
		t.Errorf("best split TTM %v should beat single-process %v", float64(best.TTM), float64(single.TTM))
	}
	if best.FracPrimary >= 1 {
		t.Error("best split should actually use the secondary node")
	}
}

func TestSplitCASBeatsSingleProcess(t *testing.T) {
	// A two-process portfolio can achieve higher agility than either
	// single process: disruption on one node only slows part of the
	// volume.
	study := ravenStudy(0.05)
	best, err := study.BestSplit(technode.N28, technode.N40, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	single, err := study.singleProcess(technode.N28, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if best.CAS <= single.CAS {
		t.Errorf("best split CAS %v should beat single-process %v", best.CAS, single.CAS)
	}
	if best.Cost <= 0 || single.Cost <= 0 {
		t.Error("costs should be positive")
	}
	// Two tapeouts cost more NRE, but the totals stay the same order
	// of magnitude (packaging dominates at 1B chips).
	if best.Cost > 2*single.Cost {
		t.Errorf("split cost %v implausibly high vs %v", best.Cost, single.Cost)
	}
}

func TestBestSplitSkipsIdleNodes(t *testing.T) {
	study := ravenStudy(0.25)
	// 20 nm has no capacity: every split using it strictly is
	// infeasible except frac=1 (pure primary).
	pt, err := study.BestSplit(technode.N28, technode.N20, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if pt.FracPrimary != 1 {
		t.Errorf("only the single-process point is feasible, got frac=%v", pt.FracPrimary)
	}
}

// oraclePairs covers healthy pairs, a degenerate pair, and a pair with
// an idle node (infinite TTM).
var oraclePairs = [][2]technode.Node{
	{technode.N250, technode.N180},
	{technode.N28, technode.N40},
	{technode.N28, technode.N28},
	{technode.N28, technode.N20},
	{technode.N40, technode.N90},
}

// oracleStudies runs the split study under every built-in scenario, so
// the probes see overridden node capacities and queues.
func oracleStudies(step float64) map[string]SplitStudy {
	out := map[string]SplitStudy{}
	for _, sc := range market.Scenarios() {
		study := ravenStudy(step)
		study.Conditions = sc.Conditions
		out[sc.Name] = study
	}
	return out
}

// eachSweep compiles every oracle pair under every oracle study at the
// given step and hands fn the pair's batched sweep of n chips.
func eachSweep(t *testing.T, step, n float64, fn func(name string, pr [2]technode.Node, cp *compiledPair, sw *pairSweep, steps int)) {
	t.Helper()
	for name, study := range oracleStudies(step) {
		for _, pr := range oraclePairs {
			cp, err := study.compilePair(pr[0], pr[1])
			if err != nil {
				t.Fatalf("compile %v/%v: %v", pr[0], pr[1], err)
			}
			steps := int(math.Round(1 / study.step()))
			sw, err := cp.sweep(n, steps)
			if err != nil {
				t.Fatalf("sweep %v/%v: %v", pr[0], pr[1], err)
			}
			fn(name, pr, cp, sw, steps)
		}
	}
}

func TestCompiledPortfolioMatchesOracleBitForBit(t *testing.T) {
	// The batched sweep columns must reproduce the per-probe
	// portfolioTTM exactly — base TTM and every CAS finite-difference
	// probe — for every pair and scenario.
	const n = 1e9
	eachSweep(t, 0.25, n, func(name string, pr [2]technode.Node, cp *compiledPair, sw *pairSweep, steps int) {
		for k := 1; k <= steps; k++ {
			frac := float64(k) / float64(steps)
			for cfg := probeBase; cfg < probeCount; cfg++ {
				if pr[0] == pr[1] && cfg >= probeSecondaryUp {
					continue
				}
				c := cp.study.Conditions
				if cfg != probeBase {
					c = c.WithNodeCapacity(sw.probes[cfg].node, sw.probes[cfg].f)
				}
				label := fmt.Sprintf("%s %v/%v@%v probe %d", name, pr[0], pr[1], frac, cfg)
				want, wantErr := portfolioTTM(cp, frac, n, c)
				got, gotErr := sw.ttmAt(k, cfg)
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("%s: err %v vs %v", label, gotErr, wantErr)
				}
				if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Errorf("%s: compiled %v != oracle %v", label, got, want)
				}
			}
		}
	})
}

func TestBatchedSweepMatchesPerCallBitForBit(t *testing.T) {
	// Every point of the batched fraction sweep must reproduce the
	// per-probe reference exactly: TTM, cost and CAS bit-for-bit, and
	// identical error strings where points fail.
	const n = 1e9
	eachSweep(t, 0.05, n, func(name string, pr [2]technode.Node, cp *compiledPair, sw *pairSweep, steps int) {
		for k := 1; k <= steps; k++ {
			f := float64(k) / float64(steps)
			label := fmt.Sprintf("%s %v/%v@%v", name, pr[0], pr[1], f)
			want, wantErr := refPoint(cp, f, n)
			got, gotErr := sw.point(k)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("%s: err %v vs %v", label, gotErr, wantErr)
			}
			if wantErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Errorf("%s: error %q != reference %q", label, gotErr, wantErr)
				}
				continue
			}
			for _, f := range [][2]float64{
				{float64(got.TTM), float64(want.TTM)}, {float64(got.Cost), float64(want.Cost)}, {got.CAS, want.CAS},
			} {
				if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
					t.Errorf("%s: point %+v != reference %+v", label, got, want)
				}
			}
			if got.FracPrimary != want.FracPrimary || got.Primary != want.Primary || got.Secondary != want.Secondary {
				t.Errorf("%s: point identity mismatch: %+v vs %+v", label, got, want)
			}
		}
	})
}

func TestBestSplitRequiresFactory(t *testing.T) {
	var study SplitStudy
	if _, err := study.BestSplit(technode.N28, technode.N40, 1e6); err == nil {
		t.Error("nil factory should error")
	}
}

func TestPairMatrixSmall(t *testing.T) {
	// Full pair matrix over a reduced database keeps the test fast
	// while covering the Fig. 14 production path.
	db, err := technode.NewDatabase([]technode.Params{
		technode.MustLookup(technode.N40),
		technode.MustLookup(technode.N28),
	})
	if err != nil {
		t.Fatal(err)
	}
	study := ravenStudy(0.25)
	study.Model.Nodes = db
	matrix, err := study.PairMatrix(1e8)
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) != 2 || len(matrix[technode.N40]) != 2 {
		t.Fatalf("matrix shape: %v", matrix)
	}
	// Diagonal entries are single-process.
	if matrix[technode.N28][technode.N28].FracPrimary != 1 {
		t.Error("diagonal should be single-process")
	}
	// Off-diagonal entries are genuine splits with positive CAS.
	off := matrix[technode.N28][technode.N40]
	if off.CAS <= 0 || off.TTM <= 0 {
		t.Errorf("off-diagonal entry degenerate: %+v", off)
	}
	// Default step (zero) resolves to 1%.
	var s SplitStudy
	if got := s.step(); got != 0.01 {
		t.Errorf("default step = %v", got)
	}
}
