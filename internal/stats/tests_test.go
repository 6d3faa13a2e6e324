package stats

import (
	"math"
	"testing"
)

func TestPoissonRateTest(t *testing.T) {
	// The Figure 6 case: PI AFR 2.66% vs 2.18% with full-population
	// exposure should be decisively significant.
	res := PoissonRateTest(958, 36000, 785, 36000)
	if res.Confidence() < 99.5 {
		t.Errorf("paper-scale shelf comparison should be >=99.5%% significant, got %v (p=%g)", res.Confidence(), res.P)
	}
	// Tiny counts: not significant.
	weak := PoissonRateTest(10, 400, 8, 400)
	if weak.Confidence() != 0 {
		t.Errorf("10 vs 8 events should not be significant, got %v", weak.Confidence())
	}
	if res := PoissonRateTest(0, 100, 5, 100); res.P != 1 {
		t.Error("zero-event group should return P=1")
	}
}

func TestPoissonRateCI(t *testing.T) {
	iv := PoissonRateCI(100, 10000, 0.95)
	approx(t, "center", iv.Center, 0.01, 1e-12)
	if !iv.Contains(0.01) {
		t.Error("CI must contain the point estimate")
	}
	// Half width ~ 1.96*sqrt(100)/10000 = 0.00196.
	approx(t, "half width", iv.HalfWidth(), 0.00196, 2e-4)
	if iv.Lower < 0 {
		t.Error("rate CI must be non-negative")
	}
	bad := PoissonRateCI(5, 0, 0.95)
	if !math.IsNaN(bad.Center) {
		t.Error("zero exposure should produce NaN CI")
	}
}

func TestProportionCI(t *testing.T) {
	iv := ProportionCI(50, 1000, 0.995)
	if !iv.Contains(0.05) {
		t.Error("Wilson CI must contain the point estimate for interior p")
	}
	if iv.Lower < 0 || iv.Upper > 1 {
		t.Error("proportion CI must stay in [0,1]")
	}
	zero := ProportionCI(0, 100, 0.95)
	if zero.Lower != 0 {
		t.Error("zero successes: lower bound should be 0")
	}
	if zero.Upper <= 0 || zero.Upper > 0.1 {
		t.Errorf("zero successes upper bound %g implausible", zero.Upper)
	}
	if !math.IsNaN(ProportionCI(1, 0, 0.95).Center) {
		t.Error("n=0 should produce NaN")
	}
}

func TestIntervalHelpers(t *testing.T) {
	a := Interval{Center: 5, Lower: 4, Upper: 6}
	if !a.Contains(4) || !a.Contains(6) || a.Contains(6.5) {
		t.Error("Contains must be inclusive of both bounds and nothing else")
	}
	if a.HalfWidth() != 1 {
		t.Errorf("half width %g", a.HalfWidth())
	}
}

func TestChiSquareGOFAcceptsTrueFamily(t *testing.T) {
	g := NewGamma(2, 3)
	xs := sample(g, 2000, 11)
	fit, err := FitGamma(xs)
	if err != nil {
		t.Fatal(err)
	}
	res := ChiSquareGOF(xs, fit, 0)
	if res.Reject(0.01) {
		t.Errorf("true family should not be rejected at 0.01, p=%g chi2=%g", res.P, res.ChiSquare)
	}
	if res.DF != res.Bins-3 {
		t.Errorf("df = bins-1-2, got %d for %d bins", res.DF, res.Bins)
	}
}

func TestChiSquareGOFRejectsWrongFamily(t *testing.T) {
	// Bimodal data is not exponential.
	r := NewRNG(12)
	var xs []float64
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			xs = append(xs, 1+r.Float64()*0.1)
		} else {
			xs = append(xs, 100+r.Float64()*10)
		}
	}
	e, _ := FitExponential(xs)
	res := ChiSquareGOF(xs, e, 0)
	if !res.Reject(0.001) {
		t.Errorf("bimodal data should reject exponential, p=%g", res.P)
	}
}

func TestChiSquareGOFInsufficientData(t *testing.T) {
	res := ChiSquareGOF([]float64{1, 2, 3}, NewExponential(1), 10)
	if !math.IsNaN(res.P) {
		t.Error("tiny sample should yield NaN p-value")
	}
	if res.Reject(0.05) {
		t.Error("NaN p-value must not reject")
	}
}

func TestTTestResultConfidenceLevels(t *testing.T) {
	cases := []struct {
		p    float64
		want float64
	}{
		{0.0005, 99.9},
		{0.004, 99.5},
		{0.009, 99},
		{0.04, 95},
		{0.2, 0},
	}
	for _, c := range cases {
		res := TTestResult{P: c.p}
		if got := res.Confidence(); got != c.want {
			t.Errorf("p=%g: confidence %g, want %g", c.p, got, c.want)
		}
	}
}
