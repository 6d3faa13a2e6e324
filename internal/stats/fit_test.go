package stats

import (
	"math"
	"testing"
)

func sample(d Distribution, n int, seed int64) []float64 {
	r := NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = draw(d, r)
	}
	return xs
}

func TestFitExponentialRecovers(t *testing.T) {
	for _, rate := range []float64{0.2, 1, 5} {
		xs := sample(NewExponential(rate), 50000, 1)
		got, err := FitExponential(xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Rate-rate)/rate > 0.03 {
			t.Errorf("rate %g: fitted %g", rate, got.Rate)
		}
	}
}

func TestFitGammaRecovers(t *testing.T) {
	cases := []Gamma{
		NewGamma(0.5, 3),
		NewGamma(1, 1),
		NewGamma(2.5, 0.5),
		NewGamma(8, 10),
	}
	for _, want := range cases {
		xs := sample(want, 50000, 2)
		got, err := FitGamma(xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Shape-want.Shape)/want.Shape > 0.05 {
			t.Errorf("shape %g: fitted %g", want.Shape, got.Shape)
		}
		if math.Abs(got.Scale-want.Scale)/want.Scale > 0.05 {
			t.Errorf("scale %g: fitted %g", want.Scale, got.Scale)
		}
	}
}

func TestFitWeibullRecovers(t *testing.T) {
	cases := []Weibull{
		NewWeibull(0.6, 2),
		NewWeibull(1, 1),
		NewWeibull(1.8, 5e6), // second-scale magnitudes like gap data
	}
	for _, want := range cases {
		xs := sample(want, 50000, 3)
		got, err := FitWeibull(xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Shape-want.Shape)/want.Shape > 0.05 {
			t.Errorf("shape %g: fitted %g", want.Shape, got.Shape)
		}
		if math.Abs(got.Scale-want.Scale)/want.Scale > 0.05 {
			t.Errorf("scale %g: fitted %g", want.Scale, got.Scale)
		}
	}
}

func TestFitRejectsDegenerateData(t *testing.T) {
	bad := [][]float64{
		nil,
		{1},
		{1, -2, 3},
		{0, 1, 2},
		{2, 2, 2, 2}, // constant: no gamma MLE
	}
	for i, xs := range bad {
		if _, err := FitGamma(xs); err == nil {
			t.Errorf("case %d: FitGamma should fail", i)
		}
	}
	if _, err := FitExponential([]float64{1, 2, math.NaN()}); err == nil {
		t.Error("FitExponential should reject NaN")
	}
	if _, err := FitWeibull([]float64{1}); err == nil {
		t.Error("FitWeibull should reject tiny samples")
	}
}

func TestFitAllRanksTrueFamilyFirst(t *testing.T) {
	// Data drawn from each family should rank that family best (or tie
	// within noise); with n=20000 the true family wins decisively for
	// shapes away from the family overlap points.
	cases := []struct {
		d    Distribution
		want string
	}{
		{NewGamma(4, 2), "Gamma"},
		{NewWeibull(3, 5), "Weibull"},
	}
	for _, c := range cases {
		xs := sample(c.d, 20000, 4)
		fits, err := FitAll(xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := fits[0].Dist.Name(); got != c.want {
			t.Errorf("data from %s: best fit %s (AICs: %v %v)", c.want, got, fits[0].AIC, fits[1].AIC)
		}
	}
}

func TestFitAllDiagnosticsCoherent(t *testing.T) {
	xs := sample(NewGamma(1.5, 2), 5000, 5)
	fits, err := FitAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 3 {
		t.Fatalf("want 3 fits, got %d", len(fits))
	}
	for i := 1; i < len(fits); i++ {
		if fits[i-1].AIC > fits[i].AIC {
			t.Error("fits not sorted by AIC")
		}
	}
	for _, fr := range fits {
		if fr.KS < 0 || fr.KS > 1 {
			t.Errorf("%s: KS distance %g out of range", fr.Dist.Name(), fr.KS)
		}
		if math.IsNaN(fr.LogLikelihood) {
			t.Errorf("%s: NaN log likelihood", fr.Dist.Name())
		}
	}
}

func TestLogLikelihoodZeroDensity(t *testing.T) {
	// Weibull with shape > 1 has zero density at 0; log likelihood of a
	// sample containing 0 must be -Inf.
	w := NewWeibull(2, 1)
	if ll := LogLikelihood(w, []float64{0.5, 0}); !math.IsInf(ll, -1) {
		t.Errorf("want -Inf, got %g", ll)
	}
}

func TestKSDistance(t *testing.T) {
	// KS of a perfect grid against its own quantiles is small.
	e := NewExponential(1)
	var xs []float64
	for i := 1; i <= 999; i++ {
		xs = append(xs, e.Quantile(float64(i)/1000))
	}
	if ks := KSDistance(e, xs); ks > 0.01 {
		t.Errorf("KS of quantile grid should be tiny, got %g", ks)
	}
	// KS against a badly wrong distribution is large.
	if ks := KSDistance(NewExponential(100), xs); ks < 0.5 {
		t.Errorf("KS of mismatched distribution should be large, got %g", ks)
	}
}
