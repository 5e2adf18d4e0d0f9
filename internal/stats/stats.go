// Package stats provides the small statistical toolkit the modeling
// framework needs: descriptive statistics, confidence intervals, and
// least-squares regression (linear and exponential).
//
// Section 5 of the paper derives its per-node engineering-effort curves
// by fitting exponential and linear regressions through published cost
// anchors, and reports Monte-Carlo means with 95% confidence intervals.
// This package implements exactly those primitives on top of the
// standard library.
package stats

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned when an estimator is given fewer
// observations than it mathematically requires.
var ErrInsufficientData = errors.New("stats: insufficient data")

// ErrDomain is returned when input values fall outside an estimator's
// domain (for example non-positive y values in an exponential fit).
var ErrDomain = errors.New("stats: value outside estimator domain")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty
// slice so that callers aggregating optional series need no special
// casing.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// ranks reads order statistics of a sample in place by selection: the
// expected cost is linear in the sample size, against n·log n for a
// sort, and the values read are exactly those a sort.Float64s of the
// sample would hold at the same ranks. Percentiles must be read in
// ascending order; each reads two adjacent ranks, and a later one never
// reads below an earlier one's floor rank.
type ranks struct {
	xs []float64
	// next is where selection starts: xs[:next] holds the next smallest
	// values, NaNs first, with every rank already read at its sorted
	// position.
	next int
}

// newRanks moves the NaNs of xs to its front, where sort.Float64s puts
// them, so selection over the rest compares with plain < and >.
func newRanks(xs []float64) ranks {
	m := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[m] = xs[m], x
			m++
		}
	}
	return ranks{xs: xs, next: m}
}

// at returns the rank-k value (0-based, ascending).
func (r *ranks) at(k int) float64 {
	if k >= r.next {
		selectRank(r.xs[r.next:], k-r.next)
		r.next = k + 1
	}
	return r.xs[k]
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100), interpolating
// linearly between the closest ranks read by at.
func (r *ranks) percentile(p float64) float64 {
	n := len(r.xs)
	if p <= 0 {
		return r.at(0)
	}
	if p >= 100 {
		return r.at(n - 1)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return r.at(lo)
	}
	frac := rank - float64(lo)
	// Select one of the two adjacent ranks and scan for the other on the
	// short side: below the ceil rank in the lower half, above the floor
	// rank in the upper half.
	var a, b float64
	if lo < n/2 {
		from := r.next
		b = r.at(hi)
		a = r.maxBelow(from, hi)
	} else {
		a = r.at(lo)
		b = r.at(hi)
	}
	return a*(1-frac) + b*frac
}

// maxBelow returns the rank hi-1 value right after at(hi) resolved rank
// hi from the unresolved stretch xs[from:hi], all of it no greater than
// xs[hi]: the stretch's maximum, moved into place at hi-1. Below from,
// rank hi-1 is already in place.
func (r *ranks) maxBelow(from, hi int) float64 {
	if hi-1 >= from {
		m := from
		for j := from + 1; j < hi; j++ {
			if r.xs[j] > r.xs[m] {
				m = j
			}
		}
		r.xs[hi-1], r.xs[m] = r.xs[m], r.xs[hi-1]
	}
	return r.xs[hi-1]
}

// selectRank reorders xs (free of NaNs) so xs[k] holds its rank-k value
// with nothing greater before it and nothing smaller after it. It is a
// quickselect with three-way partitioning, so runs of tied values cost
// one pass. Pivots of large windows follow Floyd and Rivest: a random
// sample of the window is gathered around position k and the pivot is
// selected from it at a rank just past k's share, so one partition
// leaves k in a window of about m^(2/3) of the m values; small windows
// pivot on the median of three random positions. Positions come from a
// fixed splitmix64 stream, so no input order is systematically slow and
// the result never depends on the draw.
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs)
	state := uint64(len(xs))
	for hi-lo > 16 && k > lo {
		m := hi - lo
		var p float64
		if m > 600 {
			n, i := float64(m), float64(k-lo+1)
			z := math.Log(n)
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
			if i < n/2 {
				sd = -sd
			}
			sLo := max(lo, int(float64(k)-i*s/n+sd))
			sHi := min(hi, int(float64(k)+(n-i)*s/n+sd)+1)
			for j := sLo; j < sHi; j++ {
				r := lo + int(mix(&state)%uint64(m))
				xs[j], xs[r] = xs[r], xs[j]
			}
			selectRank(xs[sLo:sHi], k-sLo)
			p = xs[k]
		} else {
			p = median3(xs[lo+int(mix(&state)%uint64(m))],
				xs[lo+int(mix(&state)%uint64(m))],
				xs[lo+int(mix(&state)%uint64(m))])
		}
		// xs[lo:lt] < p, xs[lt:i] == p, xs[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > p:
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	// A short window, or k at its low end: move each rank's minimum into
	// place up to k.
	for i := lo; i <= k; i++ {
		m := i
		for j := i + 1; j < hi; j++ {
			if xs[j] < xs[m] {
				m = j
			}
		}
		xs[i], xs[m] = xs[m], xs[i]
	}
}

// mix advances a splitmix64 stream and returns its next output.
func mix(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	x := *state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		return a
	}
	return b
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// CI95 returns the empirical central 95% interval of xs (2.5th to 97.5th
// percentile). The paper's shaded regions and error bars are empirical
// 95% CIs of the Monte-Carlo output distribution, so percentile bounds
// are the faithful estimator (the outputs are not Gaussian). The input
// is not modified.
func CI95(xs []float64) Interval {
	return CI95InPlace(append([]float64(nil), xs...))
}

// CI95InPlace is CI95 computed by order-statistic selection on the
// caller's buffer, which it reorders: the four ranks the two
// interpolated bounds need are selected in expected linear time instead
// of sorting the sample, and the result is bit for bit the interval a
// sort.Float64s of the sample would give. The batched Monte-Carlo
// drivers take the mean first, then call this on their sample buffers.
func CI95InPlace(xs []float64) Interval {
	if len(xs) == 0 {
		return Interval{Lo: math.NaN(), Hi: math.NaN()}
	}
	r := newRanks(xs)
	lo := r.percentile(2.5)
	return Interval{Lo: lo, Hi: r.percentile(97.5)}
}

// LinearFit is y = Intercept + Slope·x.
type LinearFit struct {
	Intercept, Slope float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// Eval evaluates the fitted line at x.
func (f LinearFit) Eval(x float64) float64 { return f.Intercept + f.Slope*x }

// FitLinear computes the ordinary-least-squares line through (xs, ys).
// It requires at least two points with non-identical x values.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, errors.New("stats: mismatched series lengths")
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, ErrInsufficientData
	}
	f := LinearFit{Slope: sxy / sxx}
	f.Intercept = my - f.Slope*mx
	if syy > 0 {
		ssRes := 0.0
		for i := range xs {
			r := ys[i] - f.Eval(xs[i])
			ssRes += r * r
		}
		f.R2 = 1 - ssRes/syy
	} else {
		f.R2 = 1
	}
	_ = n
	return f, nil
}

// ExpFit is y = A·exp(B·x), the form the paper uses for tapeout and
// packaging effort as a function of process generation.
type ExpFit struct {
	A, B float64
	// R2 is computed in log space, where the fit is linear.
	R2 float64
}

// Eval evaluates the fitted exponential at x.
func (f ExpFit) Eval(x float64) float64 { return f.A * math.Exp(f.B*x) }

// FitExponential fits y = A·exp(B·x) by linear least squares on
// ln(y). All ys must be strictly positive.
func FitExponential(xs, ys []float64) (ExpFit, error) {
	logs := make([]float64, len(ys))
	for i, y := range ys {
		if y <= 0 {
			return ExpFit{}, ErrDomain
		}
		logs[i] = math.Log(y)
	}
	lin, err := FitLinear(xs, logs)
	if err != nil {
		return ExpFit{}, err
	}
	return ExpFit{A: math.Exp(lin.Intercept), B: lin.Slope, R2: lin.R2}, nil
}
