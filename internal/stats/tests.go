package stats

import (
	"math"
	"sort"
)

// This file implements the hypothesis tests the paper applies: the rate
// test behind the shelf-model and multipathing comparisons (Figures 6
// and 7, "significant at the 99.5% confidence interval") and the
// chi-square goodness-of-fit test used to check the Gamma fit of disk
// failure interarrivals (Finding 8, significance level 0.05). It also
// provides the confidence intervals drawn as error bars in Figures 6, 7
// and 10.

// TTestResult reports a two-sample test of mean difference.
type TTestResult struct {
	T          float64 // test statistic
	DF         float64 // degrees of freedom (+Inf for the normal reference)
	P          float64 // two-sided p-value
	MeanA      float64
	MeanB      float64
	Difference float64 // MeanA - MeanB
}

// Confidence returns the largest conventional confidence level
// ({99.9, 99.5, 99, 95}%) at which the difference is significant, or 0 if
// it is not significant at 95%.
func (t TTestResult) Confidence() float64 {
	levels := []float64{99.9, 99.5, 99, 95}
	for _, level := range levels {
		if t.P <= 1-level/100 {
			return level
		}
	}
	return 0
}

// PoissonRateTest compares two event rates (eventsA over exposureA
// disk-years vs eventsB over exposureB) with the standard normal
// approximation on the log-rate difference. This is the natural test for
// AFR comparisons, where each population contributes an event count and
// an exposure.
func PoissonRateTest(eventsA int, exposureA float64, eventsB int, exposureB float64) TTestResult {
	res := TTestResult{P: 1}
	if exposureA <= 0 || exposureB <= 0 || eventsA == 0 || eventsB == 0 {
		if eventsA > 0 && exposureA > 0 {
			res.MeanA = float64(eventsA) / exposureA
		}
		if eventsB > 0 && exposureB > 0 {
			res.MeanB = float64(eventsB) / exposureB
		}
		res.Difference = res.MeanA - res.MeanB
		return res
	}
	ra := float64(eventsA) / exposureA
	rb := float64(eventsB) / exposureB
	res.MeanA, res.MeanB, res.Difference = ra, rb, ra-rb
	// Var[log rate] ~ 1/events for a Poisson count.
	se := math.Sqrt(1/float64(eventsA) + 1/float64(eventsB))
	res.T = math.Log(ra/rb) / se
	res.DF = math.Inf(1)
	res.P = 2 * (1 - NormalCDF(math.Abs(res.T)))
	return res
}

// studentTSF returns the upper tail probability P(T > t) for Student's t
// with df degrees of freedom (t >= 0). Infinite df degrades to normal.
func studentTSF(t, df float64) float64 {
	if math.IsInf(df, 1) {
		return 1 - NormalCDF(t)
	}
	if df <= 0 || math.IsNaN(t) {
		return math.NaN()
	}
	x := df / (df + t*t)
	return 0.5 * BetaInc(df/2, 0.5, x)
}

// StudentTQuantile returns the p-th quantile (0 < p < 1) of Student's
// t distribution with df degrees of freedom, by bisection on the
// survival function. Infinite (or huge) df degrades to the normal
// quantile; it backs the small-sample mean intervals of Online.MeanCI,
// through a TQuantiles memo.
func StudentTQuantile(p, df float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return math.NaN()
	}
	if p < 0.5 {
		return -StudentTQuantile(1-p, df)
	}
	if math.IsInf(df, 1) || df > 1e6 {
		return NormalQuantile(p)
	}
	if df <= 0 {
		return math.NaN()
	}
	target := 1 - p // upper-tail mass at the quantile
	lo, hi := 0.0, 1.0
	for studentTSF(hi, df) > target && hi < 1e18 {
		hi *= 2
	}
	for i := 0; i < 128; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			// lo and hi are adjacent floats: no later step can move
			// either, and (lo+hi)/2 is already mid.
			break
		}
		if studentTSF(mid, df) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Center float64
	Lower  float64
	Upper  float64
	Level  float64 // e.g. 0.995
}

// HalfWidth returns the (symmetric-ish) half width max(Center-Lower,
// Upper-Center), the "±" number quoted in the paper.
func (iv Interval) HalfWidth() float64 {
	return math.Max(iv.Center-iv.Lower, iv.Upper-iv.Center)
}

// PoissonRateCI returns a normal-approximation confidence interval for an
// event rate given an event count and an exposure (e.g. disk-years). The
// level is two-sided, e.g. 0.995.
func PoissonRateCI(events int, exposure float64, level float64) Interval {
	iv := Interval{Level: level}
	if exposure <= 0 {
		iv.Center, iv.Lower, iv.Upper = math.NaN(), math.NaN(), math.NaN()
		return iv
	}
	rate := float64(events) / exposure
	z := NormalQuantile(0.5 + level/2)
	se := math.Sqrt(float64(events)) / exposure
	iv.Center = rate
	iv.Lower = math.Max(0, rate-z*se)
	iv.Upper = rate + z*se
	return iv
}

// ProportionCI returns the Wilson score interval for a binomial
// proportion at the given two-sided level.
func ProportionCI(successes, n int, level float64) Interval {
	iv := Interval{Level: level}
	if n == 0 {
		iv.Center, iv.Lower, iv.Upper = math.NaN(), math.NaN(), math.NaN()
		return iv
	}
	p := float64(successes) / float64(n)
	z := NormalQuantile(0.5 + level/2)
	z2 := z * z
	nf := float64(n)
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / denom
	iv.Center = p
	iv.Lower = math.Max(0, center-half)
	iv.Upper = math.Min(1, center+half)
	return iv
}

// GOFResult reports a chi-square goodness-of-fit test.
type GOFResult struct {
	ChiSquare float64
	DF        int
	P         float64
	Bins      int
}

// Reject reports whether the null hypothesis (data drawn from the tested
// distribution) is rejected at significance level alpha.
func (g GOFResult) Reject(alpha float64) bool {
	return !math.IsNaN(g.P) && g.P < alpha
}

// ChiSquareGOF tests the sample against dist using equal-probability
// bins. If bins <= 0, the number of bins defaults to max(6, n/25) capped
// at 40, keeping every expected count comfortably above 5. Degrees of
// freedom are bins - 1 - NumParams (parameters estimated from the data).
func ChiSquareGOF(xs []float64, dist Distribution, bins int) GOFResult {
	n := len(xs)
	if bins <= 0 {
		bins = n / 25
		if bins < 6 {
			bins = 6
		}
		if bins > 40 {
			bins = 40
		}
	}
	res := GOFResult{Bins: bins, P: math.NaN()}
	if n < 5*bins/2 {
		return res
	}
	// Equal-probability bin edges from the fitted distribution.
	edges := make([]float64, bins+1)
	edges[0] = 0
	edges[bins] = math.Inf(1)
	for i := 1; i < bins; i++ {
		edges[i] = dist.Quantile(float64(i) / float64(bins))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	expected := float64(n) / float64(bins)
	chi2 := 0.0
	lo := 0
	for b := 0; b < bins; b++ {
		hi := len(sorted)
		if b < bins-1 {
			hi = sort.SearchFloat64s(sorted, edges[b+1])
		}
		observed := float64(hi - lo)
		d := observed - expected
		chi2 += d * d / expected
		lo = hi
	}
	df := bins - 1 - dist.NumParams()
	if df < 1 {
		return res
	}
	res.ChiSquare = chi2
	res.DF = df
	res.P = GammaIncQ(float64(df)/2, chi2/2)
	return res
}
