package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// distUnderTest enumerates representative members of every family.
func distsUnderTest() []Distribution {
	return []Distribution{
		NewExponential(0.5),
		NewExponential(3),
		NewGamma(0.5, 2),
		NewGamma(2.5, 1.5),
		NewWeibull(0.7, 4),
		NewWeibull(2, 1),
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	for _, d := range distsUnderTest() {
		prev := -1.0
		for _, x := range []float64{0, 0.01, 0.1, 0.5, 1, 2, 5, 20, 100, 1e4} {
			c := d.CDF(x)
			if c < prev-1e-12 {
				t.Errorf("%s: CDF not monotone at %g: %g < %g", d.Name(), x, c, prev)
			}
			if c < 0 || c > 1 {
				t.Errorf("%s: CDF(%g) = %g out of [0,1]", d.Name(), x, c)
			}
			prev = c
		}
		if d.CDF(-1) != 0 {
			t.Errorf("%s: CDF(-1) should be 0", d.Name())
		}
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	for _, d := range distsUnderTest() {
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			x := d.Quantile(p)
			if got := d.CDF(x); math.Abs(got-p) > 1e-6 {
				t.Errorf("%s: CDF(Quantile(%g)) = %g", d.Name(), p, got)
			}
		}
	}
}

func TestPDFIntegratesToCDF(t *testing.T) {
	// Numerically integrate the PDF between two interior quantiles and
	// compare against the CDF difference (trapezoid; avoids the density
	// pole some families have at zero).
	for _, d := range distsUnderTest() {
		lo := d.Quantile(0.05)
		hi := d.Quantile(0.95)
		n := 200000
		h := (hi - lo) / float64(n)
		sum := (d.PDF(lo) + d.PDF(hi)) / 2
		for i := 1; i < n; i++ {
			sum += d.PDF(lo + float64(i)*h)
		}
		integral := h * sum
		if math.Abs(integral-0.90) > 0.005 {
			t.Errorf("%s: integral of PDF between q05 and q95 = %g, want ~0.90", d.Name(), integral)
		}
	}
}

func TestSampleMomentsMatch(t *testing.T) {
	r := NewRNG(123)
	const n = 200000
	for _, d := range distsUnderTest() {
		sum, sum2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := d.Sample(r)
			if x < 0 {
				t.Fatalf("%s: negative sample %g", d.Name(), x)
			}
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		wantMean, wantVar := d.Mean(), d.Variance()
		if math.Abs(mean-wantMean) > 5*math.Sqrt(wantVar/n)+1e-9 {
			t.Errorf("%s: sample mean %g, want %g", d.Name(), mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 0.1 {
			t.Errorf("%s: sample variance %g, want %g", d.Name(), variance, wantVar)
		}
	}
}

func TestSampleAgreesWithCDF(t *testing.T) {
	// Empirical CDF of samples should match the analytic CDF (a KS-style
	// check at fixed probes).
	r := NewRNG(77)
	const n = 100000
	for _, d := range distsUnderTest() {
		probes := []float64{d.Quantile(0.1), d.Quantile(0.5), d.Quantile(0.9)}
		counts := make([]int, len(probes))
		for i := 0; i < n; i++ {
			x := d.Sample(r)
			for j, q := range probes {
				if x <= q {
					counts[j]++
				}
			}
		}
		for j, q := range probes {
			got := float64(counts[j]) / n
			want := d.CDF(q)
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s: empirical CDF at %g = %g, want %g", d.Name(), q, got, want)
			}
		}
	}
}

func TestExponentialAnalytic(t *testing.T) {
	e := NewExponential(2)
	approx(t, "mean", e.Mean(), 0.5, 1e-12)
	approx(t, "variance", e.Variance(), 0.25, 1e-12)
	approx(t, "pdf(0)", e.PDF(0), 2, 1e-12)
	approx(t, "cdf(ln2/2)", e.CDF(math.Ln2/2), 0.5, 1e-12)
	approx(t, "quantile(0.5)", e.Quantile(0.5), math.Ln2/2, 1e-12)
	if e.NumParams() != 1 {
		t.Error("Exponential has 1 parameter")
	}
}

func TestGammaAnalytic(t *testing.T) {
	g := NewGamma(3, 2)
	approx(t, "mean", g.Mean(), 6, 1e-12)
	approx(t, "variance", g.Variance(), 12, 1e-12)
	// Gamma(1, theta) is Exponential(1/theta).
	g1 := NewGamma(1, 4)
	e := NewExponential(0.25)
	for _, x := range []float64{0.5, 2, 10} {
		approx(t, "gamma(1)=exp pdf", g1.PDF(x), e.PDF(x), 1e-10)
		approx(t, "gamma(1)=exp cdf", g1.CDF(x), e.CDF(x), 1e-10)
	}
	if g.NumParams() != 2 {
		t.Error("Gamma has 2 parameters")
	}
}

func TestWeibullAnalytic(t *testing.T) {
	// Weibull(1, lambda) is Exponential(1/lambda).
	w := NewWeibull(1, 3)
	e := NewExponential(1.0 / 3)
	for _, x := range []float64{0.1, 1, 5} {
		approx(t, "weibull(1)=exp pdf", w.PDF(x), e.PDF(x), 1e-10)
		approx(t, "weibull(1)=exp cdf", w.CDF(x), e.CDF(x), 1e-10)
	}
	// Median = lambda * ln(2)^(1/k).
	w2 := NewWeibull(2, 5)
	approx(t, "weibull median", w2.Quantile(0.5), 5*math.Pow(math.Ln2, 0.5), 1e-9)
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewExponential(0) },
		func() { NewGamma(-1, 1) },
		func() { NewGamma(1, 0) },
		func() { NewWeibull(0, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: for any positive rate and probability, the exponential
// quantile/CDF pair round-trips (testing/quick).
func TestQuickExponentialRoundTrip(t *testing.T) {
	f := func(rateSeed, pSeed uint16) bool {
		rate := 0.001 + float64(rateSeed)/100
		p := (float64(pSeed) + 0.5) / (math.MaxUint16 + 1)
		e := NewExponential(rate)
		return math.Abs(e.CDF(e.Quantile(p))-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: gamma CDF is monotone in x and in shape direction at fixed
// mean (sanity of the incomplete gamma plumbing).
func TestQuickGammaCDFMonotone(t *testing.T) {
	f := func(shapeSeed, xSeed uint16) bool {
		shape := 0.1 + float64(shapeSeed%500)/50
		x := float64(xSeed) / 100
		g := NewGamma(shape, 1)
		return g.CDF(x) <= g.CDF(x+0.1)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
