package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// SortedCI95 is CI95 read off a sample already sorted with
// sort.Float64s: the sort-based estimator CI95's selection replaced,
// kept as its oracle.
func SortedCI95(sorted []float64) Interval {
	return Interval{Lo: sortedpercentile(sorted, 2.5), Hi: sortedpercentile(sorted, 97.5)}
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by
// selection on a copy, ranking as sort.Float64s orders (NaNs first).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	r := newRanks(append([]float64(nil), xs...))
	return r.percentile(p)
}

// sortedPercentile is percentile on data already sorted ascending.
func sortedpercentile(cp []float64, p float64) float64 {
	if len(cp) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstSort compares CI95, CI95InPlace and percentile on xs with
// the sort-based oracle, bit for bit.
func checkAgainstSort(t *testing.T, label string, xs []float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	want := SortedCI95(sorted)

	orig := append([]float64(nil), xs...)
	got := CI95(xs)
	for i := range xs {
		if !sameBits(xs[i], orig[i]) {
			t.Fatalf("%s: CI95 modified its input at %d", label, i)
		}
	}
	inPlace := CI95InPlace(append([]float64(nil), xs...))
	for _, g := range []Interval{got, inPlace} {
		if !sameBits(g.Lo, want.Lo) || !sameBits(g.Hi, want.Hi) {
			t.Fatalf("%s (n=%d): selection CI = [%v, %v], sort oracle = [%v, %v]",
				label, len(xs), g.Lo, g.Hi, want.Lo, want.Hi)
		}
	}
	for _, p := range []float64{-1, 0, 2.5, 10, 50, 97.5, 99.9, 100, 150} {
		if g, w := percentile(xs, p), sortedpercentile(sorted, p); !sameBits(g, w) {
			t.Fatalf("%s (n=%d): percentile(%v) = %v, sort oracle %v", label, len(xs), p, g, w)
		}
	}
}

// Equal-comparing values with different bits (−0 and +0, NaN payloads)
// have no defined relative order under sort.Float64s either, so the
// generators below emit one bit pattern per equality class: +0 only and
// math.NaN() only.

// sampleKinds builds the input shapes the property covers for size n.
func sampleKinds(rng *rand.Rand, n int) map[string][]float64 {
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	return map[string][]float64{
		"normal":     gen(func(int) float64 { return rng.NormFloat64() * 100 }),
		"ties":       gen(func(int) float64 { return float64(rng.Intn(3)) }),
		"all-equal":  gen(func(int) float64 { return 7 }),
		"ascending":  gen(func(i int) float64 { return float64(i) }),
		"descending": gen(func(i int) float64 { return float64(n - i) }),
		"organ-pipe": gen(func(i int) float64 { return float64(min(i, n-1-i)) }),
		"specials": gen(func(int) float64 {
			if rng.Intn(4) == 0 {
				return special[rng.Intn(len(special))]
			}
			return rng.NormFloat64()
		}),
		"mostly-nan": gen(func(int) float64 {
			if rng.Intn(10) != 0 {
				return math.NaN()
			}
			return float64(rng.Intn(5))
		}),
		"inf-ties": gen(func(int) float64 { return special[1+rng.Intn(2)] }),
	}
}

// TestSelectionMatchesSortProperty: for every n in [1, 300] ∪ {1024,
// 4096} and every input shape, the selection interval equals the sorted
// one bit for bit. Tiny n covers the overlapping ranks: at n = 1 all
// four ranks are 0, and at n = 2 and 3 the high bound's floor rank is
// the low bound's ceil rank.
func TestSelectionMatchesSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := []int{1024, 4096}
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for kind, xs := range sampleKinds(rng, n) {
			checkAgainstSort(t, kind, xs)
		}
	}
	checkAgainstSort(t, "empty", nil)
}

// decodeSample turns fuzz bytes into a sample, two bytes per value: the
// first picks a class (NaN, ±Inf, +0, one of a few tied values, or a
// value built from the second byte), so short inputs are rich in
// specials and ties.
func decodeSample(data []byte) []float64 {
	xs := make([]float64, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		c, v := data[i], data[i+1]
		var x float64
		switch c % 8 {
		case 0:
			x = math.NaN()
		case 1:
			x = math.Inf(1)
		case 2:
			x = math.Inf(-1)
		case 3:
			x = 0
		case 4:
			x = float64(v % 4)
		default:
			x = (float64(v) - 128) * math.Pow(2, float64(int(c)-160)/8)
		}
		xs = append(xs, x)
	}
	return xs
}

// FuzzCI95 fuzzes the selection interval against the sort oracle. The
// seed corpus — which plain `go test` runs — spans tiny samples,
// overlapping ranks, and 1024- and 4096-value samples.
func FuzzCI95(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 4, 5, 17, 40, 41, 42, 81, 300, 1024, 4096} {
		data := make([]byte, 2*n)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstSort(t, "fuzz", decodeSample(data))
	})
}

// BenchmarkCI95 compares the selection interval with the sort it
// replaced, on normal samples of the band walker's sizes.
func BenchmarkCI95(b *testing.B) {
	for _, n := range []int{32, 1024, 4096} {
		rng := rand.New(rand.NewSource(1))
		src := make([]float64, n)
		for i := range src {
			src[i] = 26 + rng.NormFloat64()
		}
		buf := make([]float64, n)
		b.Run(fmt.Sprintf("select/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				CI95InPlace(buf)
			}
		})
		b.Run(fmt.Sprintf("sort/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				sort.Float64s(buf)
				SortedCI95(buf)
			}
		})
	}
}
