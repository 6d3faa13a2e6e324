package stats

import (
	"fmt"
	"math"
)

// Distribution is a continuous univariate probability distribution with
// analytic density, CDF, quantile and mean. The failure analyses fit
// candidate distributions to observed time-between-failure data as the
// paper does in Figure 9; the simulator draws from the RNG's samplers.
type Distribution interface {
	// Name identifies the family, e.g. "Exponential".
	Name() string
	// PDF returns the density at x.
	PDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the smallest x with CDF(x) >= p.
	Quantile(p float64) float64
	// Mean returns E[X].
	Mean() float64
	// NumParams returns the number of free parameters, used to compute
	// degrees of freedom in goodness-of-fit tests.
	NumParams() int
}

// Exponential is the exponential distribution with rate lambda
// (mean 1/lambda). It is the distribution implied by the constant
// failure rate + independence assumptions the paper revisits.
type Exponential struct {
	Rate float64
}

// NewExponential returns an exponential distribution with the given rate.
func NewExponential(rate float64) Exponential {
	if rate <= 0 {
		panic("stats: Exponential requires rate > 0")
	}
	return Exponential{Rate: rate}
}

// Name implements Distribution.
func (e Exponential) Name() string { return "Exponential" }

// PDF returns the exponential density at x.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.Rate * math.Exp(-e.Rate*x)
}

// CDF returns P(X <= x).
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

// Quantile inverts the CDF in closed form.
func (e Exponential) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return -math.Log(1-p) / e.Rate
}

// Mean returns 1/rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// NumParams returns 1 (the rate).
func (e Exponential) NumParams() int { return 1 }

// String renders the distribution with its parameters.
func (e Exponential) String() string { return fmt.Sprintf("Exponential(rate=%g)", e.Rate) }

// Gamma is the gamma distribution with shape k and scale theta. The
// paper finds it is the best fit for disk failure interarrival times
// (Finding 8).
type Gamma struct {
	Shape float64
	Scale float64
}

// NewGamma returns a gamma distribution with the given shape and scale.
func NewGamma(shape, scale float64) Gamma {
	if shape <= 0 || scale <= 0 {
		panic("stats: Gamma requires shape > 0 and scale > 0")
	}
	return Gamma{Shape: shape, Scale: scale}
}

// Name implements Distribution.
func (g Gamma) Name() string { return "Gamma" }

// PDF returns the gamma density at x (log-space evaluation).
func (g Gamma) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		if g.Shape < 1 {
			return math.Inf(1)
		}
		if g.Shape == 1 {
			return 1 / g.Scale
		}
		return 0
	}
	lg, _ := math.Lgamma(g.Shape)
	return math.Exp((g.Shape-1)*math.Log(x) - x/g.Scale - lg - g.Shape*math.Log(g.Scale))
}

// CDF returns P(X <= x) via the regularized incomplete gamma.
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return GammaIncP(g.Shape, x/g.Scale)
}

// Quantile inverts the CDF by bracketed bisection.
func (g Gamma) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return quantileByBisection(g, p)
}

// Mean returns shape * scale.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

// NumParams returns 2 (shape and scale).
func (g Gamma) NumParams() int { return 2 }

// String renders the distribution with its parameters.
func (g Gamma) String() string {
	return fmt.Sprintf("Gamma(shape=%g, scale=%g)", g.Shape, g.Scale)
}

// Weibull is the Weibull distribution with shape k and scale lambda, the
// classic lifetime distribution the paper tests against in Figure 9.
type Weibull struct {
	Shape float64
	Scale float64
}

// NewWeibull returns a Weibull distribution with the given shape and
// scale.
func NewWeibull(shape, scale float64) Weibull {
	if shape <= 0 || scale <= 0 {
		panic("stats: Weibull requires shape > 0 and scale > 0")
	}
	return Weibull{Shape: shape, Scale: scale}
}

// Name implements Distribution.
func (w Weibull) Name() string { return "Weibull" }

// PDF returns the Weibull density at x.
func (w Weibull) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case w.Shape < 1:
			return math.Inf(1)
		case w.Shape == 1:
			return 1 / w.Scale
		default:
			return 0
		}
	}
	z := x / w.Scale
	return (w.Shape / w.Scale) * math.Pow(z, w.Shape-1) * math.Exp(-math.Pow(z, w.Shape))
}

// CDF returns P(X <= x) in closed form.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Scale, w.Shape))
}

// Quantile inverts the CDF in closed form.
func (w Weibull) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return w.Scale * math.Pow(-math.Log(1-p), 1/w.Shape)
}

// Mean returns scale * Gamma(1 + 1/shape).
func (w Weibull) Mean() float64 {
	return w.Scale * math.Gamma(1+1/w.Shape)
}

// NumParams returns 2 (shape and scale).
func (w Weibull) NumParams() int { return 2 }

// String renders the distribution with its parameters.
func (w Weibull) String() string {
	return fmt.Sprintf("Weibull(shape=%g, scale=%g)", w.Shape, w.Scale)
}

// quantileByBisection inverts a CDF by expanding bracketing followed by
// bisection. It is used by families without a closed-form quantile.
func quantileByBisection(d Distribution, p float64) float64 {
	lo, hi := 0.0, d.Mean()
	if hi <= 0 || math.IsNaN(hi) {
		hi = 1
	}
	for d.CDF(hi) < p {
		hi *= 2
		if math.IsInf(hi, 1) {
			return hi
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if d.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*math.Max(1, hi) {
			break
		}
	}
	return (lo + hi) / 2
}
