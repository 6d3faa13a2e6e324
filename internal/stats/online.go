package stats

// This file provides the streaming-aggregation substrate for the
// Monte-Carlo sweep engine (internal/sweep): constant-memory
// accumulators that absorb one scalar observation per trial and report
// means with confidence intervals and spread quantiles at the end —
// no per-trial retention.
//
// Determinism contract: both accumulators are pure functions of their
// Push sequence (the Reservoir also of its seed RNG), so a caller that
// feeds observations in a fixed order — the sweep's collector pushes
// trial results in trial-index order regardless of which worker
// produced them — gets bit-identical summaries for any worker count.

import (
	"math"
	"sort"
)

// Online is a streaming accumulator for a scalar statistic: count,
// mean and variance via Welford's algorithm, plus min/max. It uses
// O(1) memory and its steady-state Push performs no allocation. The
// zero value is an empty accumulator.
type Online struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Push absorbs one observation.
func (o *Online) Push(x float64) {
	if o.n == 0 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations pushed.
func (o *Online) N() int { return o.n }

// Mean returns the sample mean (NaN when empty).
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.mean
}

// Variance returns the unbiased (n-1) sample variance (NaN when fewer
// than two observations).
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return math.NaN()
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the sample standard deviation (NaN when fewer than
// two observations).
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest observation (NaN when empty).
func (o *Online) Min() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.min
}

// Max returns the largest observation (NaN when empty).
func (o *Online) Max() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.max
}

// MeanCI returns the two-sided Student-t confidence interval for the
// mean at q's level (e.g. 0.95) — the "95% CI" the sweep quotes per
// finding. The bounds are NaN when fewer than two observations have
// been pushed.
func (o *Online) MeanCI(q *TQuantiles) Interval {
	iv := Interval{Level: q.level, Center: o.Mean()}
	if o.n < 2 {
		iv.Lower, iv.Upper = math.NaN(), math.NaN()
		return iv
	}
	t := q.critical(o.n - 1)
	hw := t * math.Sqrt(o.Variance()/float64(o.n))
	iv.Lower, iv.Upper = iv.Center-hw, iv.Center+hw
	return iv
}

// TQuantiles memoises the two-sided Student-t critical values of one
// confidence level by degrees of freedom. StudentTQuantile bisects over
// BetaInc, and a summary asks it for the same degrees of freedom once
// per metric; one memo per summary makes that once per distinct df.
// The values are StudentTQuantile's, bit for bit.
type TQuantiles struct {
	level float64
	byDF  map[int]float64
}

// NewTQuantiles returns an empty memo for the given two-sided level.
func NewTQuantiles(level float64) *TQuantiles {
	return &TQuantiles{level: level, byDF: map[int]float64{}}
}

// critical returns StudentTQuantile(0.5+level/2, df), computing it at
// most once per df.
func (q *TQuantiles) critical(df int) float64 {
	t, ok := q.byDF[df]
	if !ok {
		t = StudentTQuantile(0.5+q.level/2, float64(df))
		q.byDF[df] = t
	}
	return t
}

// Reservoir keeps a fixed-capacity uniform random sample of a stream
// (Waterman's Algorithm R) for streaming quantile estimates. While the
// stream is no larger than the capacity the sample — and therefore
// every quantile — is exact; beyond that each observation seen so far
// is retained with equal probability. Replacement decisions come from
// the deterministic RNG supplied at construction, so a fixed Push
// order yields a fixed sample.
type Reservoir struct {
	xs       []float64 // the held sample, grown as it fills
	capacity int
	seen     int
	rng      RNG
	sorted   []float64 // Quantile scratch, recycled across calls
}

// NewReservoir returns an empty reservoir holding at most capacity
// observations, with replacement randomness drawn from rng. It panics
// if capacity is not positive.
func NewReservoir(capacity int, rng RNG) *Reservoir {
	if capacity <= 0 {
		panic("stats: Reservoir capacity must be positive")
	}
	return &Reservoir{capacity: capacity, rng: rng}
}

// Push absorbs one observation. Once the sample is full, pushes
// perform no allocation.
func (r *Reservoir) Push(x float64) {
	r.seen++
	if len(r.xs) < r.capacity {
		r.xs = append(r.xs, x)
		return
	}
	if j := r.rng.Intn(r.seen); j < len(r.xs) {
		r.xs[j] = x
	}
}

// Quantile returns the p-th (0..1) sample quantile of the held sample
// with linear interpolation, NaN when empty. The sort scratch is sized
// to the held sample and recycled, so repeated calls at one sample
// size allocate only once.
func (r *Reservoir) Quantile(p float64) float64 {
	if len(r.xs) == 0 {
		return math.NaN()
	}
	if cap(r.sorted) < len(r.xs) {
		r.sorted = make([]float64, 0, len(r.xs))
	}
	r.sorted = append(r.sorted[:0], r.xs...)
	sort.Float64s(r.sorted)
	return percentile(r.sorted, p)
}

// percentile returns the p-th percentile (0..1) of a sorted sample using
// nearest-rank interpolation.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
