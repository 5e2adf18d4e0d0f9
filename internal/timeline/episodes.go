package timeline

import "strings"

// The historical-episode library: named timelines stylizing the
// disruptions the paper's introduction surveys, each anchored to the
// static scenarios of internal/market at its endpoints. The anchoring
// is load-bearing, not decorative — an oracle test evaluates every
// episode's first and last step and requires TTM/CAS bit-for-bit equal
// to the static snapshot path, so the composer provably reduces to the
// well-tested static model wherever no segment is active.

// Episode is a named historical timeline.
type Episode struct {
	// Name addresses the episode in specs, jobs, and the CLI.
	Name string `json:"name"`
	// Description says what the episode stylizes.
	Description string `json:"description"`
	// StartScenario and EndScenario are the static market scenarios the
	// first and last timeline steps reproduce exactly.
	StartScenario string `json:"start_scenario"`
	EndScenario   string `json:"end_scenario"`
	// Spec is the timeline itself.
	Spec Spec `json:"spec"`
}

// Episodes returns the built-in historical episodes.
func Episodes() []Episode {
	return []Episode{
		{
			Name: "global-shortage-2020-22",
			Description: "the 2020–22 global chip shortage: a demand shock feeds a " +
				"hoarding spiral while quoted lead times drift up to the 4-week " +
				"quotes of shortage-2021 and stay there",
			StartScenario: "baseline",
			EndScenario:   "shortage-2021",
			Spec: Spec{
				Name:         "global-shortage-2020-22",
				Base:         "baseline",
				HorizonWeeks: 104,
				Segments: []Segment{
					// Quoted lead times ratchet from 0 to 4 weeks at every
					// node over two quarters and never come back down
					// inside the window — the structural half of the
					// shortage.
					{Kind: KindQueueDrift, StartWeek: 8, EndWeek: 40, DeltaWeeks: 4},
					// The transient half: a 12-week demand surge on a line
					// at 50% utilization with hoarding feedback. The
					// bullwhip backlog peaks around three extra quote-weeks
					// and fully drains before the horizon, leaving the
					// endpoint exactly on shortage-2021.
					{Kind: KindDemandShock, StartWeek: 10, EndWeek: 22, Multiplier: 2.2, Utilization: 0.5, Hoarding: true},
				},
			},
		},
		{
			Name: "single-fab-loss",
			Description: "a localized fab loss: the 40 nm line drops to 25% overnight " +
				"and a 2-week queue forms behind it — the fab-fire scenario, with " +
				"the weeks before the fire attached",
			StartScenario: "baseline",
			EndScenario:   "fab-fire",
			Spec: Spec{
				Name:         "single-fab-loss",
				Base:         "baseline",
				HorizonWeeks: 52,
				Segments: []Segment{
					// EndWeek past the horizon: the line is still down when
					// the window closes.
					{Kind: KindFabOutage, Node: "40nm", StartWeek: 6, EndWeek: 104, Depth: 0.75, Ramp: RampStep},
					{Kind: KindQueueDrift, Node: "40nm", StartWeek: 6, EndWeek: 10, DeltaWeeks: 2},
				},
			},
		},
		{
			Name: "export-control-shock",
			Description: "an export-control shock on the leading edge: 7 nm and 5 nm " +
				"capacity ramps down to 50% over a quarter and holds — the " +
				"advanced-drought scenario with its onset attached",
			StartScenario: "baseline",
			EndScenario:   "advanced-drought",
			Spec: Spec{
				Name:         "export-control-shock",
				Base:         "baseline",
				HorizonWeeks: 52,
				Segments: []Segment{
					{Kind: KindFabOutage, Node: "7nm", StartWeek: 4, EndWeek: 104, Depth: 0.5, Ramp: RampLinear, RampWeeks: 12},
					// The 5 nm line loses capacity on the exponential
					// shape: fast early loss, slow tail, same endpoint.
					{Kind: KindFabOutage, Node: "5nm", StartWeek: 4, EndWeek: 104, Depth: 0.5, Ramp: RampExp, RampWeeks: 12},
				},
			},
		},
		{
			Name: "fab-fire-recovery",
			Description: "a fab fire with a full recovery arc: the 40 nm line ramps " +
				"down, holds at 25% for a quarter, then rebuilds over twelve weeks " +
				"while its queue drains — ends back at the baseline",
			StartScenario: "baseline",
			EndScenario:   "baseline",
			Spec: Spec{
				Name:         "fab-fire-recovery",
				Base:         "baseline",
				HorizonWeeks: 40,
				Segments: []Segment{
					{Kind: KindFabOutage, Node: "40nm", StartWeek: 4, EndWeek: 16, Depth: 0.75, Ramp: RampLinear, RampWeeks: 2, RecoverWeeks: 12},
					{Kind: KindQueueDrift, Node: "40nm", StartWeek: 4, EndWeek: 8, DeltaWeeks: 2},
					{Kind: KindQueueDrift, Node: "40nm", StartWeek: 16, EndWeek: 28, DeltaWeeks: -2},
				},
			},
		},
	}
}

// EpisodeNames lists the built-in episode names in presentation order.
func EpisodeNames() []string {
	eps := Episodes()
	names := make([]string, len(eps))
	for i, e := range eps {
		names[i] = e.Name
	}
	return names
}

// FindEpisode returns the named episode, or false.
func FindEpisode(name string) (Episode, bool) {
	for _, e := range Episodes() {
		if e.Name == name {
			return e, true
		}
	}
	return Episode{}, false
}

// Resolve returns the timeline an inline spec or an episode name
// selects, exactly one of the two: the CLI, the HTTP route and batch
// jobs resolve their timeline inputs through it. Failures wrap
// ErrInvalidSpec.
func Resolve(inline *Spec, episode string) (Spec, error) {
	switch {
	case inline != nil && episode != "":
		return Spec{}, invalidf("a timeline spec and an episode are mutually exclusive")
	case inline != nil:
		return *inline, nil
	case episode == "":
		return Spec{}, invalidf("needs a timeline spec or an episode name")
	}
	ep, ok := FindEpisode(episode)
	if !ok {
		return Spec{}, invalidf("unknown episode %q (one of %s)", episode, strings.Join(EpisodeNames(), ", "))
	}
	return ep.Spec, nil
}
