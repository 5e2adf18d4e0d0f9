package mc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ttmcas/internal/core"
	"ttmcas/internal/market"
	"ttmcas/internal/scenario"
	"ttmcas/internal/technode"
)

// TestUniformSourceSeekable is the invariant distributed sharding
// depends on: the counter-based stream is O(1)-seekable, so drawing
// position t directly produces exactly the value reached by drawing
// positions 0..t in order — for any seed, any variation, any t.
func TestUniformSourceSeekable(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 64; trial++ {
		seed := rng.Int63()
		if rng.Intn(2) == 0 {
			seed = -seed
		}
		v := 0.05 + rng.Float64()*0.45
		const draws = 256
		// Walk the stream serially, recording every draw.
		serial := make([]float64, draws)
		src := uniformSource{state: uint64(seed)}
		for i := range serial {
			serial[i] = src.draw(v)
		}
		// Seek to a handful of random positions directly.
		for k := 0; k < 32; k++ {
			pos := rng.Intn(draws)
			seek := uniformSource{state: uint64(seed) + uint64(pos)*golden64}
			got := seek.draw(v)
			if math.Float64bits(got) != math.Float64bits(serial[pos]) {
				t.Fatalf("seed %d v %v: draw at position %d = %x, serial walk got %x",
					seed, v, pos, math.Float64bits(got), math.Float64bits(serial[pos]))
			}
		}
	}
}

// TestPerturbationStreamSeekable checks the sample-granular form:
// perturbationStream(seed, t) positioned directly equals the state the
// position-0 stream reaches after drawing samples 0..t-1 (six draws
// each), so fillPerturbationColumns can fill any sub-range [pos, pos+n)
// without replaying the prefix.
func TestPerturbationStreamSeekable(t *testing.T) {
	rng := rand.New(rand.NewSource(4222))
	for trial := 0; trial < 32; trial++ {
		seed := rng.Int63()
		v := 0.10
		if trial%2 == 1 {
			v = 0.25
		}
		const samples = 128
		want := make([]core.Perturbation, samples)
		fillPerturbations(want, seed, v)
		for k := 0; k < 16; k++ {
			pos := rng.Intn(samples)
			src := perturbationStream(seed, pos)
			got := core.Perturbation{
				NTT: src.draw(v), NUT: src.draw(v), D0: src.draw(v),
				Rate: src.draw(v), FabLatency: src.draw(v), TAPLatency: src.draw(v),
			}
			if got != want[pos] {
				t.Fatalf("seed %d: sample %d sought directly = %+v, serial walk got %+v",
					seed, pos, got, want[pos])
			}
		}
	}
}

// TestBandCurveBatchAtShards checks that a band curve split into
// position-range shards via BandCurveBatchAt concatenates into exactly
// the unsplit walk's bands.
func TestBandCurveBatchAtShards(t *testing.T) {
	var m core.Model
	ev, err := m.Compile(scenario.A11At(technode.N28), 10e6, market.Full())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Samples: 64, Seed: 7}
	xs := curveXs(9, 0.5, 0.1)
	want := make([]Band, len(xs))
	if err := BandCurveBatch(context.Background(), ev, cfg, xs, MetricTTM, want, nil); err != nil {
		t.Fatalf("full walk: %v", err)
	}
	got := make([]Band, len(xs))
	for _, cut := range [][2]int{{0, 4}, {4, 7}, {7, 9}} {
		lo, hi := cut[0], cut[1]
		if err := BandCurveBatchAt(context.Background(), ev, cfg, xs[lo:hi], lo, MetricTTM, got[lo:hi], nil); err != nil {
			t.Fatalf("shard [%d,%d): %v", lo, hi, err)
		}
	}
	sameBands(t, "sharded vs unsplit", got, want)
}
