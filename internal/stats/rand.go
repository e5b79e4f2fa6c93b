// Package stats provides the small statistics toolkit the simulator is
// built on: random variate generation for the distributions used by the
// mobility models and workloads, maximum-likelihood fitting for contact
// rates, and descriptive summaries for experiment reporting.
//
// Everything is deterministic given a seeded *rand.Rand; the package never
// touches global randomness or the wall clock.
package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// NewRNG returns a deterministic random source for the given seed.
// Independent simulation components should derive their own streams via
// Derive so that changing one component's draw count does not perturb the
// others.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Derive returns a new independent RNG stream keyed by the parent seed and
// a stream label. The label is hashed (FNV-1a) into the child seed so that
// streams are stable across runs and uncorrelated in practice.
func Derive(seed int64, label string) *rand.Rand {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	h ^= uint64(seed)
	h *= prime64
	return rand.New(rand.NewSource(int64(h)))
}

// DeriveSeed hashes a base seed and a sequence of labels (FNV-1a, with a
// separator folded in after each label so ("ab","c") and ("a","bc") map to
// different seeds) into a child seed. Sweep runners use it to give every
// (experiment, preset, point, scheme, replicate) cell its own stable RNG
// stream, so results do not depend on execution order.
func DeriveSeed(seed int64, labels ...string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, label := range labels {
		for i := 0; i < len(label); i++ {
			h ^= uint64(label[i])
			h *= prime64
		}
		h ^= 0x1f // unit separator: label boundaries matter
		h *= prime64
	}
	h ^= uint64(seed)
	h *= prime64
	return int64(h)
}

// Exp draws from an exponential distribution with the given rate
// (mean 1/rate). It panics if rate <= 0 since that is a programming error,
// not a data error.
func Exp(rng *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("stats: non-positive exponential rate %v", rate))
	}
	return rng.ExpFloat64() / rate
}

// Binomial draws the number of successes in n independent trials with
// success probability p. Small means use exact geometric-gap counting
// (skip distances between successes are geometric, so the cost is
// O(successes), not O(n)); large means use the same normal-approximation
// policy as Poisson, with continuity correction and clamping to [0, n].
func Binomial(rng *rand.Rand, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if mean < 30 {
		// Count successes by jumping geometric gaps: the index of the next
		// success after position i is i + 1 + Geom(p).
		logq := math.Log1p(-p)
		var k, i int64
		for {
			// Geometric skip: floor(log(U)/log(1-p)) failures before the
			// next success. Guard the conversion: for U near 1 the gap is
			// effectively infinite and would overflow int64.
			gap := math.Log(1-rng.Float64()) / logq
			if gap >= float64(n) {
				return k
			}
			i += 1 + int64(gap)
			if i > n {
				return k
			}
			k++
		}
	}
	sd := math.Sqrt(mean * (1 - p))
	v := rng.NormFloat64()*sd + mean + 0.5
	if v < 0 {
		return 0
	}
	if v > float64(n) {
		return n
	}
	return int64(v)
}

// Gamma draws from a gamma distribution with the given shape and scale
// using the Marsaglia–Tsang method (2000). shape and scale must be
// positive.
func Gamma(rng *rand.Rand, shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("stats: non-positive gamma parameters shape=%v scale=%v", shape, scale))
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		u := rng.Float64()
		return Gamma(rng, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Zipf samples ranks in [0, n) with Zipf exponent s > 0 (rank 0 most
// popular). It wraps math/rand's rejection-inversion sampler, which
// requires s > 1: exponents in (0, 1] are clamped to 1.0001, the
// near-uniform boundary case workloads may legitimately request. A
// non-positive exponent is a programming error and panics.
func Zipf(rng *rand.Rand, s float64, n int) func() int {
	if n <= 0 {
		panic(fmt.Sprintf("stats: non-positive zipf support %d", n))
	}
	if s <= 0 {
		panic(fmt.Sprintf("stats: non-positive zipf exponent %v", s))
	}
	if s <= 1 {
		s = 1.0001
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}
