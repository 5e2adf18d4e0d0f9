package fabsim

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"ttmcas/internal/units"
)

func line() Config {
	return Config{Rate: 10000, FabLatency: 12, TAPLatency: 6}
}

// ClosedForm returns the Eqs. 4–5 prediction for the same order under
// constant full capacity: queue/μ + N_W/μ + L_fab (fabrication only).
func ClosedForm(cfg Config, wafers float64, queueAhead units.Wafers) units.Weeks {
	mu := float64(cfg.Rate)
	return units.Weeks(float64(queueAhead)/mu + wafers/mu + float64(cfg.FabLatency))
}

func TestAgreesWithClosedForm(t *testing.T) {
	// Cross-validation: on constant conditions the DES must match
	// Eqs. 4–5 within one lot's worth of start time.
	cfg := line()
	for _, wafers := range []float64{100, 5000, 120_000} {
		for _, queue := range []units.Wafers{0, 20_000} {
			res, err := Run(cfg, wafers, queue, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := float64(ClosedForm(cfg, wafers, queue))
			lotTime := float64(DefaultLotSize) / float64(cfg.Rate)
			if diff := math.Abs(float64(res.LastFabComplete) - want); diff > lotTime+1e-9 {
				t.Errorf("wafers=%v queue=%v: sim %v vs closed form %v (diff %v)",
					wafers, float64(queue), float64(res.LastFabComplete), want, diff)
			}
			// Packaging adds exactly the TAP latency when throughput is
			// unbounded.
			if diff := math.Abs(float64(res.LastPackaged-res.LastFabComplete) - 6); diff > 1e-9 {
				t.Errorf("TAP delta = %v, want 6", float64(res.LastPackaged-res.LastFabComplete))
			}
		}
	}
}

func TestQueueDrainTime(t *testing.T) {
	cfg := line()
	res, err := Run(cfg, 1000, 20_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(res.QueueDrained)-2.0) > 1e-9 {
		t.Errorf("queue drained at %v, want 2 weeks", float64(res.QueueDrained))
	}
}

func TestZeroWafers(t *testing.T) {
	res, err := Run(line(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LotsStarted != 0 || res.LastPackaged != 0 {
		t.Errorf("empty order result = %+v", res)
	}
}

func TestDisruptionDelaysCompletion(t *testing.T) {
	cfg := line()
	wafers := 50_000.0 // 5 weeks of work at full rate
	base, err := Run(cfg, wafers, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Halve capacity from week 1: remaining 4 weeks of starts take 8.
	halved, err := Run(cfg, wafers, 0, []Disruption{{AtWeek: 1, Fraction: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	wantDelay := 4.0
	gotDelay := float64(halved.LastFabComplete - base.LastFabComplete)
	if math.Abs(gotDelay-wantDelay) > 0.1 {
		t.Errorf("halving capacity delayed completion by %v, want ~%v", gotDelay, wantDelay)
	}
	// Recovery: capacity back to full at week 5 limits the damage.
	recovered, err := Run(cfg, wafers, 0, []Disruption{{AtWeek: 1, Fraction: 0.5}, {AtWeek: 5, Fraction: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if recovered.LastFabComplete >= halved.LastFabComplete {
		t.Error("recovery should beat the permanent disruption")
	}
	if recovered.LastFabComplete <= base.LastFabComplete {
		t.Error("a temporary disruption still costs time")
	}
}

func TestFullOutageNeverCompletes(t *testing.T) {
	cfg := line()
	_, err := Run(cfg, 50_000, 0, []Disruption{{AtWeek: 1, Fraction: 0}})
	if err == nil {
		t.Error("permanent outage should be reported")
	}
	// An outage with recovery completes.
	res, err := Run(cfg, 50_000, 0, []Disruption{{AtWeek: 1, Fraction: 0}, {AtWeek: 3, Fraction: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(res.LastStart)-7.0) > 0.1 {
		t.Errorf("last start = %v, want ~7 (5 weeks of starts + 2-week outage)", float64(res.LastStart))
	}
}

func TestBoundedTAPThroughput(t *testing.T) {
	cfg := line()
	cfg.TAPRate = 5000 // half the fab rate: packaging becomes the bottleneck
	res, err := Run(cfg, 50_000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := Run(line(), 50_000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LastPackaged <= unbounded.LastPackaged {
		t.Error("bounded TAP line should finish later")
	}
	// Steady state: 50k wafers at 5k/week ≈ 10 weeks of TAP service
	// after the first lot arrives at week 12+ε.
	want := 12.0 + 10.0 + 6.0
	if math.Abs(float64(res.LastPackaged)-want) > 1.0 {
		t.Errorf("bottlenecked completion = %v, want ~%v", float64(res.LastPackaged), want)
	}
}

func TestLotConservation(t *testing.T) {
	// Property: lots started always covers the wafer count, and event
	// ordering yields monotone milestones.
	f := func(rawWafers uint16, rawQueue uint16) bool {
		wafers := float64(rawWafers%5000) + 1
		queue := units.Wafers(rawQueue % 10000)
		res, err := Run(line(), wafers, queue, nil)
		if err != nil {
			return false
		}
		if res.LotsStarted != int(math.Ceil(wafers/DefaultLotSize)) {
			return false
		}
		return res.QueueDrained <= res.LastStart &&
			res.LastStart <= res.LastFabComplete &&
			res.LastFabComplete <= res.LastPackaged
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Config{}, 10, 0, nil); err == nil {
		t.Error("zero rate should error")
	}
	if _, err := Run(line(), -1, 0, nil); err == nil {
		t.Error("negative wafers should error")
	}
	if _, err := Run(line(), 10, 0, []Disruption{{AtWeek: -1, Fraction: 1}}); err == nil {
		t.Error("negative disruption time should error")
	}
	if _, err := Run(line(), 10, 0, []Disruption{{AtWeek: 1, Fraction: -0.5}}); err == nil {
		t.Error("negative fraction should error")
	}
	bad := Config{Rate: 10, FabLatency: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative latency should error")
	}
}

// RunCtx must notice cancellation mid-simulation: a large order is
// hundreds of thousands of events, and timeline jobs rely on their
// deadline propagating into the event loops.
func TestRunCtxCancellation(t *testing.T) {
	cfg := line()
	// Already-cancelled context: the run must abort with ctx.Err()
	// rather than simulating half a million wafers.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, cfg, 500_000, 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// An expired deadline behaves the same.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := RunCtx(dctx, cfg, 500_000, 0, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	// A live context completes and matches the context-free entry point.
	want, err := Run(cfg, 5000, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCtx(context.Background(), cfg, 5000, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("RunCtx result %+v differs from Run %+v", got, want)
	}
}
