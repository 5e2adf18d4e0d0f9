package timeline

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ttmcas/internal/market"
	"ttmcas/internal/technode"
	"ttmcas/internal/units"
)

func validSpec() Spec {
	return Spec{
		Base:         "baseline",
		HorizonWeeks: 20,
		Segments: []Segment{
			{Kind: KindFabOutage, Node: "40nm", StartWeek: 2, EndWeek: 10, Depth: 0.5, Ramp: RampStep},
		},
	}
}

// Every invalid spec must wrap ErrInvalidSpec (the jobs and HTTP layers
// key 422 off it) and say what is wrong.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown base", func(s *Spec) { s.Base = "no-such-scenario" }, "unknown base scenario"},
		{"zero horizon", func(s *Spec) { s.HorizonWeeks = 0 }, "horizon_weeks"},
		{"negative horizon", func(s *Spec) { s.HorizonWeeks = -4 }, "horizon_weeks"},
		{"negative step", func(s *Spec) { s.StepWeeks = -1 }, "step_weeks"},
		{"too many steps", func(s *Spec) { s.HorizonWeeks = 1e6 }, "exceed the limit"},
		{"no segments", func(s *Spec) { s.Segments = nil }, "no segments"},
		{"missing kind", func(s *Spec) { s.Segments[0].Kind = "" }, "missing segment kind"},
		{"unknown kind", func(s *Spec) { s.Segments[0].Kind = "meteor" }, "unknown segment kind"},
		{"unknown node", func(s *Spec) { s.Segments[0].Node = "3nm-and-a-half" }, "segment 0"},
		{"negative start", func(s *Spec) { s.Segments[0].StartWeek = -1 }, "start_week"},
		{"end before start", func(s *Spec) { s.Segments[0].EndWeek = 1 }, "end_week"},
		{"zero depth", func(s *Spec) { s.Segments[0].Depth = 0 }, "depth"},
		{"depth above one", func(s *Spec) { s.Segments[0].Depth = 1.5 }, "depth"},
		{"unknown ramp", func(s *Spec) { s.Segments[0].Ramp = "cliff" }, "unknown ramp"},
		{"step ramp with weeks", func(s *Spec) { s.Segments[0].RampWeeks = 2 }, "step ramp"},
		{"ramp outgrows window", func(s *Spec) {
			s.Segments[0].Ramp = RampLinear
			s.Segments[0].RampWeeks = 20
		}, "does not fit"},
		{"overlapping same node", func(s *Spec) {
			s.Segments = append(s.Segments, Segment{
				Kind: KindFabOutage, Node: "40nm", StartWeek: 8, EndWeek: 14, Depth: 0.3, Ramp: RampStep,
			})
		}, "overlap"},
		{"overlap via recovery tail", func(s *Spec) {
			s.Segments[0].Ramp = RampLinear
			s.Segments[0].RampWeeks = 1
			s.Segments[0].RecoverWeeks = 6
			s.Segments = append(s.Segments, Segment{
				Kind: KindFabOutage, Node: "40nm", StartWeek: 12, EndWeek: 18, Depth: 0.3, Ramp: RampStep,
			})
		}, "overlap"},
		{"fractional demand window", func(s *Spec) {
			s.Segments[0] = Segment{Kind: KindDemandShock, StartWeek: 1.5, EndWeek: 4, Multiplier: 1.5}
		}, "whole numbers"},
		{"demand without multiplier", func(s *Spec) {
			s.Segments[0] = Segment{Kind: KindDemandShock, StartWeek: 1, EndWeek: 4}
		}, "positive multiplier"},
		{"utilization at one", func(s *Spec) {
			s.Segments[0] = Segment{Kind: KindDemandShock, StartWeek: 1, EndWeek: 4, Multiplier: 1.5, Utilization: 1}
		}, "utilization"},
		{"too many sub-shocks", func(s *Spec) {
			s.Segments[0] = Segment{Kind: KindDemandShock, StartWeek: 1, EndWeek: 4, Shocks: 99}
		}, "shocks"},
		{"zero-delta drift", func(s *Spec) {
			s.Segments[0] = Segment{Kind: KindQueueDrift, StartWeek: 1, EndWeek: 4}
		}, "delta_weeks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mut(&s)
			err := s.Validate(Limits{})
			if err == nil {
				t.Fatalf("Validate accepted the spec")
			}
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("error %v does not wrap ErrInvalidSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	s := validSpec()
	if err := s.Validate(Limits{}); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// Same kind on different nodes may overlap in time.
	s.Segments = append(s.Segments, Segment{
		Kind: KindFabOutage, Node: "7nm", StartWeek: 2, EndWeek: 10, Depth: 0.5, Ramp: RampStep,
	})
	// Different kinds on the same node may too.
	s.Segments = append(s.Segments, Segment{
		Kind: KindQueueDrift, Node: "40nm", StartWeek: 2, EndWeek: 10, DeltaWeeks: 1,
	})
	if err := s.Validate(Limits{}); err != nil {
		t.Fatalf("overlap across kinds/nodes rejected: %v", err)
	}
	// Every shipped episode must validate under default limits.
	for _, ep := range Episodes() {
		if err := ep.Spec.Validate(Limits{}); err != nil {
			t.Errorf("episode %s: %v", ep.Name, err)
		}
	}
}

func TestStepCount(t *testing.T) {
	cases := []struct {
		horizon, step float64
		want          int
	}{
		{104, 0, 105}, // default 1-week steps, endpoint included
		{104, 1, 105},
		{52, 2, 27},
		{10, 4, 3},  // weeks 0, 4, 8
		{12, 4, 4},  // weeks 0, 4, 8, 12
		{0.5, 1, 1}, // only week 0 fits
		{0, 1, 0},
		{-3, 1, 0},
	}
	for _, tc := range cases {
		s := Spec{HorizonWeeks: tc.horizon, StepWeeks: tc.step}
		if got := s.StepCount(); got != tc.want {
			t.Errorf("StepCount(horizon=%v, step=%v) = %d, want %d", tc.horizon, tc.step, got, tc.want)
		}
	}
}

// The composed conditions must hit the segment targets exactly: full
// capacity before the start, exactly 1−Depth inside the hold window,
// exactly full again after recovery — the invariant the episode
// endpoint oracles build on.
func TestFabOutageComposition(t *testing.T) {
	n40 := technode.N40
	tl, err := Compile(Spec{
		Base:         "baseline",
		HorizonWeeks: 40,
		Segments: []Segment{
			{Kind: KindFabOutage, Node: "40nm", StartWeek: 4, EndWeek: 16,
				Depth: 0.75, Ramp: RampLinear, RampWeeks: 2, RecoverWeeks: 12},
		},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	capAt := func(step int) float64 {
		c := tl.ConditionsAt(step)
		if v, ok := c.NodeCapacity(n40); ok {
			return v
		}
		return 1
	}
	if got := capAt(0); got != 1 {
		t.Errorf("week 0 capacity %v, want exactly 1", got)
	}
	if got := capAt(5); got != 0.625 {
		t.Errorf("mid-ramp week 5 capacity %v, want 0.625", got)
	}
	if got := capAt(6); got != 0.25 {
		t.Errorf("hold week 6 capacity %v, want exactly 0.25", got)
	}
	if got := capAt(15); got != 0.25 {
		t.Errorf("hold week 15 capacity %v, want exactly 0.25", got)
	}
	if got := capAt(22); got <= 0.25 || got >= 1 {
		t.Errorf("mid-recovery week 22 capacity %v, want strictly between 0.25 and 1", got)
	}
	if got := capAt(28); got != 1 {
		t.Errorf("recovered week 28 capacity %v, want exactly 1", got)
	}
	if got := capAt(40); got != 1 {
		t.Errorf("final week capacity %v, want exactly 1", got)
	}
}

// Global outages scale GlobalCapacity; they compose multiplicatively
// with node outages through the conditions' own capacity() product.
func TestGlobalOutage(t *testing.T) {
	tl, err := Compile(Spec{
		Base:         "baseline",
		HorizonWeeks: 10,
		Segments: []Segment{
			{Kind: KindFabOutage, StartWeek: 2, EndWeek: 8, Depth: 0.5, Ramp: RampStep},
		},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// The baseline scenario sets GlobalCapacity to an explicit 1.
	if g := tl.ConditionsAt(0).GlobalCapacity; g != 1 {
		t.Errorf("week 0 GlobalCapacity %v, want the base scenario's 1", g)
	}
	if g := tl.ConditionsAt(4).GlobalCapacity; g != 0.5 {
		t.Errorf("week 4 GlobalCapacity %v, want 0.5", g)
	}
	if g := tl.ConditionsAt(9).GlobalCapacity; g != 1 {
		t.Errorf("week 9 GlobalCapacity %v, want restored 1", g)
	}
}

// A +delta drift followed by a −delta drift must sum to exactly zero —
// the recovery-arc idiom of the fab-fire-recovery episode.
func TestQueueDriftCancellation(t *testing.T) {
	n40 := technode.N40
	tl, err := Compile(Spec{
		Base:         "baseline",
		HorizonWeeks: 30,
		Segments: []Segment{
			{Kind: KindQueueDrift, Node: "40nm", StartWeek: 2, EndWeek: 6, DeltaWeeks: 2},
			{Kind: KindQueueDrift, Node: "40nm", StartWeek: 10, EndWeek: 20, DeltaWeeks: -2},
		},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	q := func(step int) float64 { return float64(queueOf(tl.ConditionsAt(step), n40)) }
	if got := q(0); got != 0 {
		t.Errorf("week 0 queue %v, want 0", got)
	}
	if got := q(4); got != 1 {
		t.Errorf("mid-drift week 4 queue %v, want 1", got)
	}
	if got := q(8); got != 2 {
		t.Errorf("held week 8 queue %v, want exactly 2", got)
	}
	if got := q(25); got != 0 {
		t.Errorf("post-recovery week 25 queue %v, want exactly 0", got)
	}
	// A lone negative drift clamps at zero rather than going negative.
	tl2, err := Compile(Spec{
		Base:         "baseline",
		HorizonWeeks: 10,
		Segments: []Segment{
			{Kind: KindQueueDrift, Node: "40nm", StartWeek: 1, EndWeek: 4, DeltaWeeks: -3},
		},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(queueOf(tl2.ConditionsAt(8), n40)); got != 0 {
		t.Errorf("clamped queue %v, want 0", got)
	}
}

// The exp ramp must land exactly on the target at the window edge (the
// normalization exists for this) and lose capacity faster than linear
// early in the window.
func TestExpRampShape(t *testing.T) {
	if got := rampShape(shapeExp, 1); got != 1 {
		t.Errorf("exp shape at u=1 is %v, want exactly 1", got)
	}
	if got := rampShape(shapeExp, 0); got != 0 {
		t.Errorf("exp shape at u=0 is %v, want 0", got)
	}
	if exp, lin := rampShape(shapeExp, 0.25), rampShape(shapeLinear, 0.25); exp <= lin {
		t.Errorf("exp shape %v at u=0.25 not ahead of linear %v", exp, lin)
	}
	for _, u := range []float64{0.1, 0.3, 0.7, 0.9} {
		if got := rampShape(shapeExp, u); got <= 0 || got >= 1 || math.IsNaN(got) {
			t.Errorf("exp shape at u=%v is %v, want in (0, 1)", u, got)
		}
	}
}

// A demand shock builds backlog during the window and, on an
// under-utilized line, drains to float-exact zero afterwards.
func TestDemandShockBacklog(t *testing.T) {
	n7 := technode.N7
	tl, err := Compile(Spec{
		Base:         "baseline",
		HorizonWeeks: 104,
		Segments: []Segment{
			{Kind: KindDemandShock, Node: "7nm", StartWeek: 10, EndWeek: 22,
				Multiplier: 2.2, Utilization: 0.5, Hoarding: true},
		},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	q := func(step int) float64 { return float64(queueOf(tl.ConditionsAt(step), n7)) }
	if got := q(0); got != 0 {
		t.Errorf("pre-shock queue %v, want 0", got)
	}
	if got := q(21); got <= 1 {
		t.Errorf("peak-era queue %v, want > 1 queue-week", got)
	}
	if got := q(104); got != 0 {
		t.Errorf("post-drain queue %v, want float-exact 0", got)
	}
	// The shock is scoped to 7nm: other nodes never see it.
	if got := float64(queueOf(tl.ConditionsAt(21), technode.N40)); got != 0 {
		t.Errorf("40nm queue %v during a 7nm-scoped shock, want 0", got)
	}
}

// Seeded multi-shock segments must be reproducible: same seed, same
// composed conditions; different seed, (almost surely) different.
func TestSeededShocksDeterministic(t *testing.T) {
	spec := func(seed int64) Spec {
		return Spec{
			Base:         "baseline",
			HorizonWeeks: 60,
			Segments: []Segment{
				{Kind: KindDemandShock, StartWeek: 5, EndWeek: 45, Shocks: 4, Seed: seed, Utilization: 0.5, Hoarding: true},
			},
		}
	}
	a1, err := Compile(spec(42), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Compile(spec(42), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(spec(43), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	n7 := technode.N7
	same, differ := true, false
	for i := 0; i < a1.StepCount(); i++ {
		qa1 := queueOf(a1.ConditionsAt(i), n7)
		qa2 := queueOf(a2.ConditionsAt(i), n7)
		if qa1 != qa2 {
			same = false
		}
		if qa1 != queueOf(b.ConditionsAt(i), n7) {
			differ = true
		}
	}
	if !same {
		t.Error("same seed produced different composed conditions")
	}
	if !differ {
		t.Error("different seeds produced identical composed conditions")
	}
}

// FabDisruptions must be a deduplicated stair: fractions only where the
// composed capacity changes, matching ConditionsAt at every boundary.
func TestFabDisruptionsSchedule(t *testing.T) {
	n40 := technode.N40
	tl, err := Compile(Spec{
		Base:         "baseline",
		HorizonWeeks: 20,
		Segments: []Segment{
			{Kind: KindFabOutage, Node: "40nm", StartWeek: 4, EndWeek: 10, Depth: 0.5, Ramp: RampStep},
		},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ds := tl.FabDisruptions(n40)
	if len(ds) != 2 {
		t.Fatalf("disruption stair %v, want down-and-up (2 entries)", ds)
	}
	if float64(ds[0].AtWeek) != 4 || ds[0].Fraction != 0.5 {
		t.Errorf("first stair %+v, want week 4 fraction 0.5", ds[0])
	}
	if float64(ds[1].AtWeek) != 10 || ds[1].Fraction != 1 {
		t.Errorf("second stair %+v, want week 10 fraction 1", ds[1])
	}
	// Untouched nodes have no schedule and are omitted entirely.
	sched := tl.DisruptionSchedule([]technode.Node{n40, technode.N7})
	if _, ok := sched[technode.N7]; ok {
		t.Error("7nm got a schedule from a 40nm-only outage")
	}
	if _, ok := sched[n40]; !ok {
		t.Error("40nm missing from the schedule")
	}
}

// Compiling must leave the base scenario's shared node table untouched:
// ConditionsAt composes on copies, never in place.
func TestBaseConditionsNotMutated(t *testing.T) {
	sc, _ := market.FindScenario("fab-fire")
	before := map[technode.Node]float64{}
	for i := 0; i < sc.Conditions.Len(); i++ {
		if s := sc.Conditions.At(i); s.HasCapacity {
			before[s.Node] = s.Capacity
		}
	}
	tl, err := Compile(Spec{
		Base:         "fab-fire",
		HorizonWeeks: 10,
		Segments: []Segment{
			{Kind: KindFabOutage, Node: "40nm", StartWeek: 0, EndWeek: 20, Depth: 0.5, Ramp: RampStep},
			{Kind: KindQueueDrift, Node: "40nm", StartWeek: 0, EndWeek: 5, DeltaWeeks: 3},
		},
	}, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tl.StepCount(); i++ {
		tl.ConditionsAt(i)
	}
	after, _ := market.FindScenario("fab-fire")
	for n, v := range before {
		if got, _ := after.Conditions.NodeCapacity(n); got != v {
			t.Errorf("scenario NodeCapacity[%s] mutated: %v → %v", n, v, got)
		}
	}
	// The compiled outage stacks multiplicatively on the base 0.25.
	if got, _ := tl.ConditionsAt(5).NodeCapacity(technode.N40); got != 0.125 {
		t.Errorf("stacked 40nm capacity %v, want 0.25 × 0.5 = 0.125", got)
	}
}

func TestEpisodeLookup(t *testing.T) {
	names := EpisodeNames()
	if len(names) < 3 {
		t.Fatalf("episode library has %d entries, want at least 3", len(names))
	}
	for _, name := range names {
		ep, ok := FindEpisode(name)
		if !ok {
			t.Fatalf("FindEpisode(%q) missed", name)
		}
		if ep.Name != name {
			t.Errorf("FindEpisode(%q).Name = %q", name, ep.Name)
		}
		if _, ok := market.FindScenario(ep.StartScenario); !ok {
			t.Errorf("episode %s anchors to unknown start scenario %q", name, ep.StartScenario)
		}
		if _, ok := market.FindScenario(ep.EndScenario); !ok {
			t.Errorf("episode %s anchors to unknown end scenario %q", name, ep.EndScenario)
		}
	}
	if _, ok := FindEpisode("alien-invasion"); ok {
		t.Error("FindEpisode invented an episode")
	}
}

// queueOf is c's queue quote at n, zero when unset.
func queueOf(c market.Conditions, n technode.Node) units.Weeks {
	w, _ := c.QueueWeeks(n)
	return w
}
