package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ttmcas/internal/core"
	"ttmcas/internal/mc"
	"ttmcas/internal/sens"
	"ttmcas/internal/timeline"
)

// loopback is an in-process Distributor: Dispatch runs the shard
// locally through the same RunShard a remote peer would, so gathered
// results exercise the real scatter/gather surface without a network.
// Targets can be marked transport-dead to drive hedging and fallback.
type loopback struct {
	targets []string
	lim     Limits

	mu         sync.Mutex
	dispatched map[string]int
	dead       map[string]bool
}

func newLoopback(n int) *loopback {
	d := &loopback{
		dispatched: make(map[string]int),
		dead:       make(map[string]bool),
	}
	for i := 0; i < n; i++ {
		d.targets = append(d.targets, fmt.Sprintf("peer-%d", i))
	}
	return d
}

func (d *loopback) Targets() []string { return d.targets }

func (d *loopback) kill(target string) {
	d.mu.Lock()
	d.dead[target] = true
	d.mu.Unlock()
}

func (d *loopback) calls() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.dispatched {
		n += c
	}
	return n
}

func (d *loopback) Dispatch(ctx context.Context, target string, req ShardRequest) (ShardResult, error) {
	d.mu.Lock()
	d.dispatched[target]++
	dead := d.dead[target]
	d.mu.Unlock()
	if dead {
		return ShardResult{}, errors.New("loopback: connection refused")
	}
	return RunShard(ctx, d.lim, req, nil)
}

// runJobOn submits the spec to a fresh manager wired with d (nil for
// single-node) and returns the finished view plus raw result JSON.
func runJobOn(t *testing.T, d Distributor, spec Spec) (View, json.RawMessage) {
	t.Helper()
	cfg := quietConfig()
	cfg.Distributor = d
	cfg.DistMinEvaluations = 1
	m := New(cfg)
	defer m.Close()
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFinished(t, m, v.ID)
	if fin.Status != StatusSucceeded {
		return fin, nil
	}
	raw, _, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	return fin, raw
}

func oracleSpecs() map[string]Spec {
	xs := make([]float64, 9)
	for i := range xs {
		xs[i] = 0.5 + 0.05*float64(i)
	}
	return map[string]Spec{
		"mc-band": {Kind: KindMCBand, Design: "a11", Samples: 48, Seed: 11, Xs: xs},
		"mc-band-cas": {Kind: KindMCBand, Design: "zen2", Metric: "cas",
			Samples: 32, Seed: 3, Xs: xs[:5]},
		"sensitivity": {Kind: KindSensitivity, Design: "zen2", Samples: 24,
			Seed: 7, Variation: 0.25},
		"sweep": {Kind: KindSweep, Design: "a11",
			Quantities: []float64{1e6, 5e6, 20e6}},
		"timeline": {Kind: KindTimeline, Design: "zen2",
			Episode: "export-control-shock", InFlight: true},
	}
}

// oracleReference builds a shardable spec's result document straight
// from the package drivers — mc.BandCurveEval, sens.TotalEffectBatch,
// sweepCellEval per cell in node-major order, timeline.Evaluate — with
// none of the shard path's code: the reference every plan, the
// single-node one-shard plan included, must match.
func oracleReference(t *testing.T, s Spec) (any, error) {
	t.Helper()
	s = s.normalized()
	d, c, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	switch s.Kind {
	case KindMCBand:
		metric, sel := "ttm", mc.MetricTTM
		if s.Metric == "cas" {
			metric, sel = "cas", mc.MetricCAS
		}
		cfg := mc.Config{Samples: s.samples(mc.DefaultSamples), Seed: s.Seed}
		bands, err := mc.BandCurveEval(ctx, core.Model{}, cfg, d, s.n(), c, s.xs(), sel, nil)
		if err != nil {
			return nil, err
		}
		res := BandResult{Design: d.Name, Metric: metric, Chips: s.n(), Samples: cfg.Samples, Seed: s.Seed}
		for _, b := range bands {
			res.Points = append(res.Points, BandPoint{
				X: b.X, Mean: finite(b.Mean),
				CI10Lo: finite(b.CI10.Lo), CI10Hi: finite(b.CI10.Hi),
				CI25Lo: finite(b.CI25.Lo), CI25Hi: finite(b.CI25.Hi),
			})
		}
		return res, nil
	case KindSensitivity:
		ev, err := core.Model{}.Compile(d, s.n(), c)
		if err != nil {
			return nil, err
		}
		cfg := sens.Config{N: s.samples(512), Variation: s.Variation, Seed: s.Seed}
		r, err := sens.TotalEffectBatch(ctx, core.Inputs, cfg, sens.TTMFactory(ev, nil))
		if err != nil {
			return nil, err
		}
		return SensitivityResult{Design: d.Name, Chips: s.n(), Inputs: r.Inputs,
			TotalEffect: r.Total, FirstOrder: r.First, VarY: r.VarY, Evaluations: r.Evaluations}, nil
	case KindSweep:
		nodes, err := s.gridNodes()
		if err != nil {
			t.Fatal(err)
		}
		eval := sweepCellEval(d, c)
		res := SweepResult{Design: d.Name}
		for _, node := range nodes {
			for _, q := range s.quantities() {
				cell, err := eval(gridCell{node, q})
				if err != nil {
					return nil, err
				}
				res.Cells = append(res.Cells, cell)
			}
		}
		return res, nil
	case KindTimeline:
		ts, err := s.timelineSpec()
		if err != nil {
			t.Fatal(err)
		}
		tl, err := timeline.Compile(ts, timeline.Limits{MaxSteps: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return timeline.Evaluate(ctx, core.Model{}, d, s.n(), tl, timeline.Options{InFlight: s.InFlight})
	}
	t.Fatalf("kind %q has no reference", s.Kind)
	return nil, nil
}

// oracleJSON is oracleReference's document as a job result carries it.
func oracleJSON(t *testing.T, s Spec) []byte {
	t.Helper()
	ref, err := oracleReference(t, s)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	raw, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// runPlan runs a hand-made scatter plan of spec over a loopback ring —
// shard 0 in process, the rest through RunShard's wire form — and
// returns the merged result's JSON.
func runPlan(t *testing.T, spec Spec, cuts ...int) []byte {
	t.Helper()
	m := New(quietConfig())
	defer m.Close()
	s := spec.normalized()
	p, err := s.prepare()
	if err != nil {
		t.Fatal(err)
	}
	bounds := append(append([]int{0}, cuts...), p.space)
	var reqs []ShardRequest
	for i := 0; i+1 < len(bounds); i++ {
		reqs = append(reqs, ShardRequest{Job: "job-000001", Index: i, Lo: bounds[i], Hi: bounds[i+1], Spec: s})
	}
	lb := newLoopback(2)
	res, err := m.runDistributed(context.Background(), &Job{id: "job-000001", spec: s}, &p, lb, lb.targets, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if lb.calls() != len(reqs)-1 {
		t.Fatalf("%d dispatches for a %d-shard plan", lb.calls(), len(reqs))
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDistributedOracleBitForBit is the tentpole guarantee: for every
// shardable kind, the single-node job (the one-shard plan), the 2- and
// 3-shard scatter/gather jobs and an uneven hand-made split are all
// byte-for-byte the document the package drivers build directly. Byte
// equality of the JSON is strictly stronger than per-value
// math.Float64bits equality — Go renders each distinct float64 bit
// pattern as a distinct shortest-round-trip string — and additionally
// pins field order and structure.
func TestDistributedOracleBitForBit(t *testing.T) {
	for name, spec := range oracleSpecs() {
		t.Run(name, func(t *testing.T) {
			want := oracleJSON(t, spec)
			_, single := runJobOn(t, nil, spec)
			if !bytes.Equal(single, want) {
				t.Fatalf("single-node result differs from the reference:\nref:    %s\nsingle: %s", want, single)
			}
			for peers := 1; peers <= 2; peers++ {
				d := newLoopback(peers)
				fin, dist := runJobOn(t, d, spec)
				if fin.Status != StatusSucceeded {
					t.Fatalf("%d-shard job: %s (%s)", peers+1, fin.Status, fin.Error)
				}
				if d.calls() != peers {
					t.Fatalf("%d-shard job dispatched %d shards, want %d", peers+1, d.calls(), peers)
				}
				if !bytes.Equal(dist, want) {
					t.Fatalf("%d-shard result differs from the reference:\nref:  %s\ndist: %s", peers+1, want, dist)
				}
			}
			// An uneven split: a one-index first shard, the rest in two.
			space := spec.normalized().shardSpace()
			if got := runPlan(t, spec, 1, 1+(space-1)/3); !bytes.Equal(got, want) {
				t.Fatalf("uneven split differs from the reference:\nref:   %s\nsplit: %s", want, got)
			}
		})
	}
}

// TestDistributedOracleBandBits re-checks the mc-band oracle at the
// float64 bit level after decoding, independent of JSON rendering.
func TestDistributedOracleBandBits(t *testing.T) {
	spec := oracleSpecs()["mc-band"]
	ref, err := oracleReference(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.(BandResult)
	bits := func(p *float64) uint64 {
		if p == nil {
			return 0
		}
		return math.Float64bits(*p)
	}
	for _, d := range []Distributor{nil, newLoopback(3)} {
		_, raw := runJobOn(t, d, spec)
		var got BandResult
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("point counts differ: %d vs %d", len(got.Points), len(want.Points))
		}
		for i := range want.Points {
			w, g := want.Points[i], got.Points[i]
			if bits(w.Mean) != bits(g.Mean) || bits(w.CI10Lo) != bits(g.CI10Lo) ||
				bits(w.CI10Hi) != bits(g.CI10Hi) || bits(w.CI25Lo) != bits(g.CI25Lo) ||
				bits(w.CI25Hi) != bits(g.CI25Hi) {
				t.Fatalf("point %d differs at the bit level: %+v vs %+v", i, w, g)
			}
		}
	}
}

// TestDistributedErrorSurfaceMatchesSerial: a deterministic compute
// error (degenerate Sobol variance from a vanishing variation) must
// fail the single-node and the distributed job alike with exactly the
// error sens.TotalEffectBatch reports.
func TestDistributedErrorSurfaceMatchesSerial(t *testing.T) {
	spec := Spec{Kind: KindSensitivity, Design: "a11", Samples: 16,
		Seed: 5, Variation: 1e-300}
	_, refErr := oracleReference(t, spec)
	if refErr == nil {
		t.Fatal("reference run succeeded, want a degenerate-variance error")
	}
	for _, d := range []Distributor{nil, newLoopback(2)} {
		fin, _ := runJobOn(t, d, spec)
		if fin.Status != StatusFailed {
			t.Fatalf("job: %s (%s), want failed", fin.Status, fin.Error)
		}
		if fin.Error != refErr.Error() {
			t.Fatalf("error surfaces differ:\nref: %q\njob: %q", refErr.Error(), fin.Error)
		}
	}
}

// TestDistributedShardErrorLowestIndexWins: when several shards carry
// compute errors, the coordinator must surface the lowest-index one —
// the error the serial run would have hit first.
func TestDistributedShardErrorLowestIndexWins(t *testing.T) {
	cfg := quietConfig().withDefaults()
	m := New(cfg)
	defer m.Close()
	j := &Job{id: "job-000001", spec: validSpec().normalized()}
	parts := []ShardResult{
		{Index: 0},
		{Index: 1, Err: "boom at shard 1"},
		{Index: 2, Err: "boom at shard 2"},
	}
	d := &errInjector{parts: parts}
	targets := []string{"p0", "p1"}
	reqs := []ShardRequest{
		{Index: 0, Lo: 0, Hi: 1, Spec: j.spec},
		{Index: 1, Lo: 1, Hi: 2, Spec: j.spec},
		{Index: 2, Lo: 2, Hi: 3, Spec: j.spec},
	}
	p, err := j.spec.prepare()
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.runDistributed(context.Background(), j, &p, d, targets, reqs)
	if err == nil || err.Error() != "boom at shard 1" {
		t.Fatalf("err = %v, want the lowest-index shard error", err)
	}
}

// errInjector returns pre-built shard results, including for shard 0's
// local slot — runDistributed runs shard 0 itself, so the injector only
// serves indices ≥ 1.
type errInjector struct{ parts []ShardResult }

func (d *errInjector) Targets() []string { return []string{"p0", "p1"} }
func (d *errInjector) Dispatch(ctx context.Context, target string, req ShardRequest) (ShardResult, error) {
	return d.parts[req.Index], nil
}

// TestDistributedHedgesToNextPeer: a transport-dead first target must
// not fail the shard — it re-dispatches to the next peer and the job
// still matches the serial result.
func TestDistributedHedgesToNextPeer(t *testing.T) {
	spec := oracleSpecs()["mc-band"]
	_, serial := runJobOn(t, nil, spec)
	d := newLoopback(2)
	d.kill("peer-0")
	fin, dist := runJobOn(t, d, spec)
	if fin.Status != StatusSucceeded {
		t.Fatalf("job with one dead peer: %s (%s)", fin.Status, fin.Error)
	}
	if !bytes.Equal(serial, dist) {
		t.Fatalf("hedged result differs from serial:\nserial: %s\ndist:   %s", serial, dist)
	}
	d.mu.Lock()
	alive := d.dispatched["peer-1"]
	d.mu.Unlock()
	if alive == 0 {
		t.Fatal("surviving peer never received a hedged dispatch")
	}
}

// TestDistributedFallsBackWhenRingDead: every peer transport-dead — the
// coordinator computes all shards locally and the job still succeeds
// with the serial bits. A dead ring degrades throughput, never
// correctness.
func TestDistributedFallsBackWhenRingDead(t *testing.T) {
	spec := oracleSpecs()["sweep"]
	_, serial := runJobOn(t, nil, spec)
	d := newLoopback(2)
	d.kill("peer-0")
	d.kill("peer-1")
	fin, dist := runJobOn(t, d, spec)
	if fin.Status != StatusSucceeded {
		t.Fatalf("job on dead ring: %s (%s)", fin.Status, fin.Error)
	}
	if !bytes.Equal(serial, dist) {
		t.Fatalf("fallback result differs from serial:\nserial: %s\ndist:   %s", serial, dist)
	}
}

// TestDistributedProgressAggregates: the coordinator's done/total must
// cover the whole job — local shard streaming plus remote bulk adds —
// so the existing ETA math keeps working unchanged.
func TestDistributedProgressAggregates(t *testing.T) {
	spec := oracleSpecs()["mc-band"]
	fin, _ := runJobOn(t, newLoopback(2), spec)
	want := uint64(spec.EstimatedEvaluations())
	if fin.Total != want || fin.Done != want {
		t.Fatalf("progress = %d/%d, want %d/%d", fin.Done, fin.Total, want, want)
	}
}

// TestDistributedCancelFansOut: cancelling the coordinator cancels the
// dispatch contexts; the job ends cancelled, not hung.
func TestDistributedCancelFansOut(t *testing.T) {
	started := make(chan struct{})
	d := &blockingDistributor{started: started, release: make(chan struct{})}
	defer close(d.release)
	cfg := quietConfig()
	cfg.Distributor = d
	cfg.DistMinEvaluations = 1
	m := New(cfg)
	defer m.Close()
	spec := oracleSpecs()["mc-band"]
	spec.Samples = 512 // keep the local shard busy long enough to cancel
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitFinished(t, m, v.ID)
	if fin.Status != StatusCancelled {
		t.Fatalf("status = %s (%s), want cancelled", fin.Status, fin.Error)
	}
}

// blockingDistributor parks every dispatch until its context dies,
// signalling the first arrival — a stand-in for a hung peer.
type blockingDistributor struct {
	once    sync.Once
	started chan struct{}
	release chan struct{}
}

func (d *blockingDistributor) Targets() []string { return []string{"p0"} }
func (d *blockingDistributor) Dispatch(ctx context.Context, target string, req ShardRequest) (ShardResult, error) {
	d.once.Do(func() { close(d.started) })
	select {
	case <-ctx.Done():
		return ShardResult{}, ctx.Err()
	case <-d.release:
		return ShardResult{}, errors.New("released")
	}
}

// TestPlanShards pins the planner's gating and balance.
func TestPlanShards(t *testing.T) {
	s := Spec{Kind: KindMCBand, Design: "a11", Samples: 64,
		Xs: []float64{0.3, 0.4, 0.5, 0.6, 0.7}}.normalized()
	if got := planShards(s, "j", 0, 1); got != nil {
		t.Fatalf("no targets: planned %d shards", len(got))
	}
	if got := planShards(s, "j", 2, 1<<30); got != nil {
		t.Fatal("below min evaluations: plan should be nil")
	}
	reqs := planShards(s, "j", 2, 1)
	if len(reqs) != 3 {
		t.Fatalf("planned %d shards, want 3", len(reqs))
	}
	covered := 0
	for i, r := range reqs {
		if r.Index != i || r.Lo >= r.Hi {
			t.Fatalf("shard %d malformed: %+v", i, r)
		}
		if i > 0 && r.Lo != reqs[i-1].Hi {
			t.Fatalf("shards not contiguous at %d", i)
		}
		covered += r.Hi - r.Lo
	}
	if covered != 5 || reqs[0].Lo != 0 || reqs[len(reqs)-1].Hi != 5 {
		t.Fatalf("shards cover %d of 5 positions", covered)
	}
	// More peers than work: capped at one index per shard.
	if reqs := planShards(s, "j", 16, 1); len(reqs) != 5 {
		t.Fatalf("oversubscribed ring planned %d shards, want 5", len(reqs))
	}
	// Pareto does not shard.
	p := Spec{Kind: KindPareto, Design: "a11"}.normalized()
	if got := planShards(p, "j", 4, 1); got != nil {
		t.Fatal("pareto planned shards; kind is not shardable")
	}
}

// TestRunShardRejectsBadRange: malformed ranges are invalid-spec
// errors, not crashes or silent truncation.
func TestRunShardRejectsBadRange(t *testing.T) {
	s := validSpec().normalized()
	for _, r := range [][2]int{{-1, 1}, {1, 1}, {2, 1}, {0, 100}} {
		req := ShardRequest{Job: "j", Lo: r[0], Hi: r[1], Spec: s}
		if _, err := RunShard(context.Background(), Limits{}, req, nil); !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("range [%d,%d): err = %v, want ErrInvalidSpec", r[0], r[1], err)
		}
	}
	req := ShardRequest{Job: "j", Lo: 0, Hi: 1, Spec: Spec{Kind: KindPareto, Design: "a11"}.normalized()}
	if _, err := RunShard(context.Background(), Limits{}, req, nil); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("pareto shard: err = %v, want ErrInvalidSpec", err)
	}
}

// TestMidFlightSnapshotRestoresClean: a snapshot persisted while a
// (distributed) run was mid-flight — status running, progress counters
// non-zero — must restore as a clean pending job with no orphan
// done/total, then re-run from the spec. Companion to the truncated
// `.corrupt` quarantine case in TestCorruptSnapshotQuarantined.
func TestMidFlightSnapshotRestoresClean(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UTC()
	sf := snapshotFile{View: View{
		ID:      "job-000003",
		Kind:    KindMCBand,
		Status:  StatusRunning,
		Spec:    validSpec().normalized(),
		Created: now,
		Started: &now,
		Done:    17,
		Total:   96,
	}}
	data, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-000003.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := quietConfig()
	cfg.SnapshotDir = dir
	m := New(cfg)
	defer m.Close()
	fin := waitFinished(t, m, "job-000003")
	if fin.Status != StatusSucceeded {
		t.Fatalf("re-run of mid-flight job: %s (%s)", fin.Status, fin.Error)
	}
	if !fin.Restored {
		t.Fatal("job lost its restored mark")
	}
	// The re-run owns the progress counters outright: the spec's own
	// totals, no orphan units from the dead coordinator.
	want := uint64(validSpec().normalized().EstimatedEvaluations())
	if fin.Total != want || fin.Done != want {
		t.Fatalf("progress after re-run = %d/%d, want %d/%d", fin.Done, fin.Total, want, want)
	}
	if strings.Contains(fin.Error, "orphan") {
		t.Fatal(fin.Error)
	}
}

// checkpointDistributor finishes shards aimed at peer-0 (shard 1 of
// the 4-shard plan) and parks every other dispatch until its context
// dies — a coordinator caught mid-scatter.
type checkpointDistributor struct {
	lim      Limits
	shard1OK chan struct{}
	once     sync.Once
}

func (d *checkpointDistributor) Targets() []string { return []string{"peer-0", "peer-1", "peer-2"} }

func (d *checkpointDistributor) Dispatch(ctx context.Context, target string, req ShardRequest) (ShardResult, error) {
	if target == "peer-0" {
		res, err := RunShard(ctx, d.lim, req, nil)
		if err == nil {
			d.once.Do(func() { close(d.shard1OK) })
		}
		return res, err
	}
	<-ctx.Done()
	return ShardResult{}, ctx.Err()
}

// TestShardCheckpointResume is the shard-checkpoint contract: kill the
// coordinator after shard 1 of 4 completes, restore over the same
// snapshot directory, and the resumed job re-runs only the 3 missing
// shards while producing the byte-identical result.
func TestShardCheckpointResume(t *testing.T) {
	spec := oracleSpecs()["mc-band"]
	_, oracle := runJobOn(t, nil, spec)

	dir := t.TempDir()
	cfg := quietConfig()
	cfg.SnapshotDir = dir
	cfg.Distributor = &checkpointDistributor{shard1OK: make(chan struct{})}
	cfg.DistMinEvaluations = 1
	m1 := New(cfg)
	v, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for shard 1's result to be checkpointed on disk, then kill
	// the coordinator with shards 2 and 3 still parked.
	<-cfg.Distributor.(*checkpointDistributor).shard1OK
	snap := filepath.Join(dir, v.ID+".json")
	waitForCond(t, "shard 1 checkpointed", func() bool {
		data, err := os.ReadFile(snap)
		if err != nil {
			return false
		}
		var sf snapshotFile
		return json.Unmarshal(data, &sf) == nil && len(sf.Shards) >= 1 && len(sf.Plan) == 4
	})
	m1.Close()

	// The interrupted snapshot must still carry the plan + checkpoint.
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var sf snapshotFile
	if err := json.Unmarshal(data, &sf); err != nil {
		t.Fatal(err)
	}
	if sf.View.Status != StatusPending || len(sf.Plan) != 4 || len(sf.Shards) < 1 {
		t.Fatalf("interrupted snapshot: status %s, %d plan, %d shards; want pending/4/>=1",
			sf.View.Status, len(sf.Plan), len(sf.Shards))
	}

	// Restart over the same directory with a healthy (counting) ring.
	lb := newLoopback(3)
	cfg2 := quietConfig()
	cfg2.SnapshotDir = dir
	cfg2.Distributor = lb
	cfg2.DistMinEvaluations = 1
	m2 := New(cfg2)
	defer m2.Close()
	fin := waitFinished(t, m2, v.ID)
	if fin.Status != StatusSucceeded {
		t.Fatalf("resumed job: %s (%s)", fin.Status, fin.Error)
	}
	raw, _, err := m2.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, oracle) {
		t.Fatalf("resumed result differs from single-node oracle:\n%s\nvs\n%s", raw, oracle)
	}
	// Only shards 2 and 3 were re-dispatched (shard 0 is always local,
	// shard 1 came from the checkpoint).
	if got := lb.calls(); got != 2 {
		t.Fatalf("resumed run dispatched %d shards, want 2", got)
	}
	if fin.Done != fin.Total || fin.Total == 0 {
		t.Fatalf("resumed progress = %d/%d, want complete", fin.Done, fin.Total)
	}
}

// waitForCond polls until cond holds or a 5s deadline lapses.
func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
