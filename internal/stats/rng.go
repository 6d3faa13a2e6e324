// Package stats provides the statistical substrate used throughout the
// storagesubsys reproduction: deterministic random number streams,
// probability distributions with analytic forms and samplers, maximum
// likelihood fitting, empirical CDFs, goodness-of-fit and hypothesis
// tests, confidence intervals, and bootstrap resampling.
//
// Everything in this package is deterministic given an RNG seed, which is
// what makes fleet simulations reproducible: a (profile, seed) pair fully
// determines the generated failure history.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic, splittable random number stream.
//
// The generator is xoshiro256++ (Blackman & Vigna) whose 4-word state is
// seeded through the SplitMix64 finalizer from a 64-bit stream key. The
// key is the stream's identity: it is fixed at creation, never advanced
// by draws, and Split derives a child key purely from (parent key,
// stream index). Two properties follow:
//
//   - Split is a constant-size, allocation-free pure function: the
//     returned child is a 40-byte value, so per-shelf / per-slot /
//     per-process streams can be split in the simulation hot path
//     without generating any garbage (the old math/rand-backed RNG
//     allocated a ~5KB lagged-Fibonacci state array per split).
//   - Streams are decoupled: a child depends only on the parent's key
//     and the caller-chosen stream index, so inserting a new component
//     (a new split index) never perturbs the randomness of existing
//     sibling streams, and splitting after draws yields the same child
//     as splitting before them.
//
// The sampler surface covers the distributions the failure models need
// (gamma, lognormal, Poisson, geometric, categorical) that are
// not in math/rand.
type RNG struct {
	key            uint64 // stream identity: hash of the seed and split path
	s0, s1, s2, s3 uint64 // xoshiro256++ state
}

const golden64 = 0x9e3779b97f4a7c15 // 2^64 / phi, the SplitMix64 gamma

// mix64 is the SplitMix64 output finalizer (Stafford mix 13): a
// bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fromKey expands a stream key into a full generator state via four
// SplitMix64 steps, the seeding procedure the xoshiro authors recommend.
func fromKey(key uint64) RNG {
	r := RNG{key: key}
	st := key
	st += golden64
	r.s0 = mix64(st)
	st += golden64
	r.s1 = mix64(st)
	st += golden64
	r.s2 = mix64(st)
	st += golden64
	r.s3 = mix64(st)
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		// xoshiro's single forbidden state; unreachable in practice but
		// cheap to rule out entirely.
		r.s0 = golden64
	}
	return r
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	r := fromKey(mix64(uint64(seed) + golden64))
	return &r
}

// Split derives an independent child stream keyed by a caller-chosen
// stream index. The child is a pure function of the parent's identity
// and the index — the parent's draw position is neither consumed nor
// consulted — so the same (parent, stream) pair always yields the same
// child, and distinct indices yield decoupled streams. Split performs
// no allocation; the returned value is self-contained.
//
//detlint:hotpath
func (r *RNG) Split(stream uint64) RNG {
	return fromKey(mix64(r.key + golden64*(stream+1)))
}

// Uint64 returns the next 64 uniform bits (xoshiro256++).
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0. Uses
// Lemire's multiply-shift bounded draw with rejection, so the result is
// exactly uniform.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn requires n > 0")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Int63 returns a non-negative uniform 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// openFloat64 returns a uniform variate in (0, 1): the zero draw the
// log-based samplers cannot accept is rejected.
func (r *RNG) openFloat64() float64 {
	for {
		if u := r.Float64(); u > 0 {
			return u
		}
	}
}

// Exponential returns an exponential variate with the given rate
// (mean 1/rate) via inversion. It panics if rate <= 0. The result is
// strictly positive, so cumulative Poisson-process clocks built from it
// are strictly increasing.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential requires rate > 0")
	}
	return -math.Log(r.openFloat64()) / rate
}

// Normal returns a normal variate with the given mean and standard
// deviation (Marsaglia polar method).
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a lognormal variate where the underlying normal has
// the given mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Gamma returns a gamma variate with the given shape and scale using the
// Marsaglia–Tsang squeeze method, with the standard shape<1 boost.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Gamma requires shape > 0 and scale > 0")
	}
	if shape < 1 {
		// Boost: if X ~ Gamma(shape+1) then X * U^(1/shape) ~ Gamma(shape).
		u := r.openFloat64()
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Normal(0, 1)
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Poisson returns a Poisson variate with the given mean. For small means
// it uses Knuth multiplication; for large means, the PTRS transformed
// rejection method would be overkill here, so it falls back to a normal
// approximation with continuity correction, which is accurate to well
// under one count for mean >= 30 — far tighter than anything the failure
// models need.
func (r *RNG) Poisson(mean float64) int {
	if mean < 0 {
		panic("stats: Poisson requires mean >= 0")
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := int(math.Round(r.Normal(mean, math.Sqrt(mean))))
	if n < 0 {
		n = 0
	}
	return n
}

// Zipf-like categorical draw: Categorical returns index i with
// probability weights[i] / sum(weights). It panics if all weights are
// zero or any weight is negative.
func (r *RNG) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("stats: Categorical requires non-negative weights")
		}
		total += w
	}
	if total <= 0 {
		panic("stats: Categorical requires a positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
