package resilience

import (
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func testBreaker(clk *fakeClock, cfg BreakerConfig) *Breaker {
	cfg.now = clk.now
	return NewBreaker(cfg)
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{ConsecutiveFailures: 3})
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Record(false)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 3rd failure = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before OpenFor elapsed")
	}
}

func TestBreakerTripsOnFailureRate(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{
		ConsecutiveFailures: 100, // rate must be what trips it
		FailureRate:         0.5,
		MinSamples:          10,
	})
	// Alternate success/failure: never 100 consecutive, but the
	// windowed rate hits 0.5 with >= MinSamples observations.
	for i := 0; i < 10 && b.State() == BreakerClosed; i++ {
		b.Record(i%2 == 0)
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 50%% failure rate = %v, want open", got)
	}
}

func TestBreakerRateNeedsMinSamples(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{ConsecutiveFailures: 100, FailureRate: 0.5, MinSamples: 10})
	// 100% failure rate but below MinSamples: must stay closed.
	for i := 0; i < 4; i++ {
		b.Record(false)
		b.Record(true) // reset the consecutive counter
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state below MinSamples = %v, want closed", got)
	}
}

func TestBreakerHalfOpenProbeAndClose(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{
		ConsecutiveFailures: 2,
		OpenFor:             time.Second,
		HalfOpenProbes:      1,
		CloseAfter:          2,
	})
	b.Record(false)
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}

	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after OpenFor")
	}
	if b.Allow() {
		t.Fatal("half-open admitted a second concurrent probe (HalfOpenProbes=1)")
	}
	b.Record(true)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after 1 half-open success = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("half-open refused the next probe after the first completed")
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after CloseAfter successes = %v, want closed", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{ConsecutiveFailures: 2, OpenFor: time.Second})
	b.Record(false)
	b.Record(false)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe")
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after half-open failure = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a call immediately")
	}
}

func TestBreakerProbeSuccessWhileOpen(t *testing.T) {
	// A Record(true) without Allow — a gossip probe — observed while
	// open must move the breaker toward closed without waiting for
	// the OpenFor cooldown.
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{ConsecutiveFailures: 2, OpenFor: time.Hour, CloseAfter: 2})
	b.Record(false)
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	b.Record(true)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after probe success while open = %v, want half-open", got)
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after CloseAfter probe successes = %v, want closed", got)
	}
}

func TestBreakerTransitionCallback(t *testing.T) {
	clk := newFakeClock()
	type hop struct{ from, to BreakerState }
	var hops []hop
	b := testBreaker(clk, BreakerConfig{
		Name:                "peer-a",
		ConsecutiveFailures: 1,
		OpenFor:             time.Second,
		CloseAfter:          1,
		OnTransition: func(name string, from, to BreakerState) {
			if name != "peer-a" {
				t.Errorf("transition name = %q, want peer-a", name)
			}
			hops = append(hops, hop{from, to})
		},
	})
	b.Record(false) // closed -> open
	clk.advance(time.Second)
	if !b.Allow() { // open -> half-open
		t.Fatal("breaker refused the half-open probe")
	}
	b.Record(true) // half-open -> closed
	want := []hop{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	if len(hops) != len(want) {
		t.Fatalf("transitions = %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, hops[i], want[i])
		}
	}
}

func TestBreakerWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, BreakerConfig{
		ConsecutiveFailures: 100,
		FailureRate:         0.5,
		MinSamples:          4,
		Window:              time.Second,
	})
	b.Record(false)
	b.Record(false)
	b.Record(false)
	// Let the window lapse entirely: old failures must not count.
	clk.advance(2 * time.Second)
	b.Record(true)
	b.Record(false)
	b.Record(true)
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after window expiry = %v, want closed (stale failures counted)", got)
	}
}

func TestNilBreakerIsPermissive(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker refused a call")
	}
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("nil breaker state = %v, want closed", got)
	}
}
