package stats

import (
	"math"
	"testing"
)

// TestPairedOnlineMatchesDirectDeltas pins the delta leg's contract:
// pushing pairs into a PairedOnline is bit-for-bit identical to
// feeding the precomputed differences into a plain Online — mean,
// variance, CI, extremes, everything. The sweep's checkpointed delta
// aggregates depend on this equivalence staying exact.
func TestPairedOnlineMatchesDirectDeltas(t *testing.T) {
	r := NewRNG(7)
	var p PairedOnline
	var o Online
	for i := 0; i < 1000; i++ {
		x := r.Normal(3, 2)
		y := r.Normal(1, 5)
		p.Push(x, y)
		o.Push(x - y)
	}
	if p.N() != o.N() {
		t.Fatalf("N: %d vs %d", p.N(), o.N())
	}
	sameBits := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s diverged: %v vs %v", name, a, b)
		}
	}
	sameBits("Mean", p.Mean(), o.Mean())
	sameBits("Variance", p.Variance(), o.Variance())
	sameBits("StdDev", p.StdDev(), o.StdDev())
	pci, oci := p.MeanCI(0.95), o.MeanCI(0.95)
	sameBits("CI.Lower", pci.Lower, oci.Lower)
	sameBits("CI.Upper", pci.Upper, oci.Upper)
}

// TestPairedOnlineLegsAndCorr checks the bivariate side: the Pearson
// correlation on exactly linear data (corr ±1 up to float
// error), plus every NaN guard.
func TestPairedOnlineLegsAndCorr(t *testing.T) {
	var pos, neg PairedOnline
	for i := 1; i <= 50; i++ {
		x := float64(i)
		pos.Push(x, 2*x+3)  // perfectly correlated legs
		neg.Push(x, -5*x+1) // perfectly anti-correlated legs
	}
	if got := pos.Corr(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Corr on y=2x+3: %v, want 1", got)
	}
	if got := neg.Corr(); math.Abs(got+1) > 1e-12 {
		t.Errorf("Corr on y=-5x+1: %v, want -1", got)
	}

	var empty PairedOnline
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Corr()) {
		t.Error("empty accumulator must report NaN everywhere")
	}
	var one PairedOnline
	one.Push(1, 2)
	if !math.IsNaN(one.Corr()) {
		t.Error("Corr with one pair must be NaN")
	}
	var flat PairedOnline
	for i := 0; i < 10; i++ {
		flat.Push(float64(i), 4) // constant second leg
	}
	if !math.IsNaN(flat.Corr()) {
		t.Error("Corr with a constant leg must be NaN")
	}
}

// TestPairedOnlineStateRoundTrip: serializing mid-stream and resuming
// continues bit-identically to an accumulator that was never captured
// — the property the sweep checkpoint envelope relies on.
func TestPairedOnlineStateRoundTrip(t *testing.T) {
	r := NewRNG(11)
	var live PairedOnline
	for i := 0; i < 137; i++ {
		live.Push(r.Float64(), r.Exponential(2))
	}
	resumed := RestorePairedOnline(live.State())
	r2 := NewRNG(99)
	for i := 0; i < 200; i++ {
		x, y := r2.Float64(), r2.Float64()
		live.Push(x, y)
		resumed.Push(x, y)
	}
	if live.State() != resumed.State() {
		t.Fatalf("resumed state diverged:\n live: %+v\n rest: %+v", live.State(), resumed.State())
	}
	if math.Float64bits(live.Corr()) != math.Float64bits(resumed.Corr()) {
		t.Fatal("Corr diverged after round-trip")
	}
}

// poissonCDF is the reference P(X <= k) by direct summation.
func poissonCDF(mean float64, k int) float64 {
	p := math.Exp(-mean)
	cum := p
	for i := 1; i <= k; i++ {
		p *= mean / float64(i)
		cum += p
	}
	return cum
}

// TestPoissonInvCDFExact: below the mean-30 regime boundary the
// inverse must agree with the reference CDF — PoissonInvCDF(mean, u)
// is the smallest k with CDF(k) >= u — probed on both sides of every
// step for a spread of means.
func TestPoissonInvCDFExact(t *testing.T) {
	for _, mean := range []float64{0.01, 0.5, 1, 4.2, 12, 29.9} {
		for k := 0; k < 60; k++ {
			c := poissonCDF(mean, k)
			if math.Nextafter(c, 1) >= 1 || poissonCDF(mean, k+1) == c {
				// Saturated tail: the float CDF can no longer advance, so u
				// above c sits beyond representable mass and the step
				// contract ends here (the implementation walks to term
				// underflow by design).
				break
			}
			// Just above CDF(k): the inverse must step to k+1.
			if got := PoissonInvCDF(mean, math.Nextafter(c, 1)); got != k+1 {
				t.Fatalf("mean %v: InvCDF(CDF(%d)+ε) = %d, want %d", mean, k, got, k+1)
			}
			// At or just below CDF(k): the inverse must return <= k (exactly
			// k when u is above CDF(k-1)).
			if got := PoissonInvCDF(mean, c); got > k {
				t.Fatalf("mean %v: InvCDF(CDF(%d)) = %d, want <= %d", mean, k, got, k)
			}
		}
	}
}

// TestPoissonInvCDFProperties: edge mappings, panics, monotonicity in
// u, and the large-mean normal regime staying near the mean.
func TestPoissonInvCDFProperties(t *testing.T) {
	if PoissonInvCDF(0, 0.7) != 0 {
		t.Error("mean 0 must map to 0")
	}
	if PoissonInvCDF(5, 0) != 0 || PoissonInvCDF(5, -1) != 0 {
		t.Error("u <= 0 must map to 0")
	}
	for _, bad := range []func(){
		func() { PoissonInvCDF(-1, 0.5) },
		func() { PoissonInvCDF(5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid input did not panic")
				}
			}()
			bad()
		}()
	}
	for _, mean := range []float64{3, 30, 120} {
		prev := -1
		for u := 0.001; u < 1; u += 0.001 {
			k := PoissonInvCDF(mean, u)
			if k < prev {
				t.Fatalf("mean %v: inverse CDF not monotone at u=%v (%d after %d)", mean, u, k, prev)
			}
			prev = k
		}
		// The median of a Poisson is within about 1 of its mean.
		if med := PoissonInvCDF(mean, 0.5); math.Abs(float64(med)-mean) > mean*0.25+2 {
			t.Errorf("mean %v: median %d implausibly far", mean, med)
		}
	}
}

// TestStratifiedPoissonVarianceReduction is the satellite self-check
// for stratification: estimating E[Poisson(λ)] from n stratified
// inverse-CDF draws ((i+u_i)/n over a shuffled stratum order) has
// strictly lower sampling variance than n plain iid draws. Both
// estimators replicate R times from a fixed seed; the test demands a
// decisive ratio, not a statistical coin flip.
func TestStratifiedPoissonVarianceReduction(t *testing.T) {
	const (
		lambda = 7.5
		n      = 32 // draws per estimate (= strata)
		reps   = 200
	)
	r := NewRNG(2024)
	var plain, strat Online
	for rep := 0; rep < reps; rep++ {
		sumP, sumS := 0, 0
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i < n; i++ {
			sumP += r.Poisson(lambda)
			u := (float64(perm[i]) + r.Float64()) / n
			sumS += PoissonInvCDF(lambda, u)
		}
		plain.Push(float64(sumP) / n)
		strat.Push(float64(sumS) / n)
	}
	if math.Abs(strat.Mean()-lambda) > 0.1 {
		t.Errorf("stratified estimator biased: mean %v, want ~%v", strat.Mean(), lambda)
	}
	if ratio := strat.Variance() / plain.Variance(); ratio > 0.5 {
		t.Errorf("stratification reduced variance only by factor %v (want <= 0.5): plain %v, stratified %v",
			ratio, plain.Variance(), strat.Variance())
	}
}
