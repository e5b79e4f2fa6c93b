package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned by fitting routines when the sample is
// too small to estimate the requested parameter.
var ErrInsufficientData = errors.New("stats: insufficient data")

// ExpRateMLE estimates the rate of an exponential distribution from
// inter-event samples by maximum likelihood (1 / sample mean).
func ExpRateMLE(interTimes []float64) (float64, error) {
	if len(interTimes) == 0 {
		return 0, ErrInsufficientData
	}
	var sum float64
	for _, t := range interTimes {
		if t < 0 {
			return 0, errors.New("stats: negative inter-event time")
		}
		sum += t
	}
	if sum == 0 {
		return 0, errors.New("stats: zero total observation time")
	}
	return float64(len(interTimes)) / sum, nil
}

// ExpCDF is the CDF of an exponential distribution with the given rate:
// the probability an Exp(rate) variable is <= t. For rate <= 0 or t <= 0
// it returns 0 (a pair that never meets never delivers).
func ExpCDF(rate, t float64) float64 {
	if rate <= 0 || t <= 0 {
		return 0
	}
	return 1 - math.Exp(-rate*t)
}

// HypoExpCDF is the CDF of the sum of two independent exponential
// variables with rates l1 and l2 evaluated at t: the probability that a
// two-hop opportunistic path (source meets relay, relay meets destination)
// completes within t. It handles the l1 == l2 limit (Erlang-2) and returns
// 0 when either rate is non-positive.
//
// For l1 != l2:
//
//	P(X1+X2 <= t) = 1 - (l2*e^{-l1 t} - l1*e^{-l2 t}) / (l2 - l1)
//
// For l1 == l2 == l (Erlang-2):
//
//	P = 1 - e^{-l t} (1 + l t)
func HypoExpCDF(l1, l2, t float64) float64 {
	if l1 <= 0 || l2 <= 0 || t <= 0 {
		return 0
	}
	// Near-equal rates: use the Erlang-2 form to avoid catastrophic
	// cancellation in the general formula.
	if math.Abs(l1-l2) < 1e-9*math.Max(l1, l2) {
		l := (l1 + l2) / 2
		x := l * t
		// exp(-x) underflows to 0 well before x reaches 745; guard so the
		// 0 * (1+x) product cannot become 0 * Inf = NaN for enormous t.
		if x > 700 {
			return 1
		}
		return clampProb(1 - math.Exp(-x)*(1+x))
	}
	p := 1 - (l2*math.Exp(-l1*t)-l1*math.Exp(-l2*t))/(l2-l1)
	return clampProb(p)
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// ExpFitKS returns the Kolmogorov–Smirnov distance between the empirical
// distribution of the sample and the exponential distribution fitted to
// it by MLE: sup_x |F_emp(x) − (1 − e^{−λx})| with λ = 1/mean. Small
// values (≲0.1) mean the exponential contact model is a good description;
// real mobility traces typically show larger distances on their
// inter-contact times. Returns ErrInsufficientData for samples smaller
// than 2.
func ExpFitKS(sample []float64) (float64, error) {
	if len(sample) < 2 {
		return 0, ErrInsufficientData
	}
	rate, err := ExpRateMLE(sample)
	if err != nil {
		return 0, err
	}
	sorted := make([]float64, len(sample))
	copy(sorted, sample)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	maxDist := 0.0
	for i, x := range sorted {
		model := ExpCDF(rate, x)
		// The empirical CDF jumps at x: check both sides of the step.
		lo := float64(i) / n
		hi := float64(i+1) / n
		if d := math.Abs(model - lo); d > maxDist {
			maxDist = d
		}
		if d := math.Abs(model - hi); d > maxDist {
			maxDist = d
		}
	}
	return maxDist, nil
}
