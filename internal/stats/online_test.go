package stats

import (
	"math"
	"sort"
	"testing"
)

// TestOnlineMatchesSummarize checks the streaming accumulator against
// the batch Summarize on random data: same mean, variance, min, max.
func TestOnlineMatchesSummarize(t *testing.T) {
	r := NewRNG(7)
	xs := make([]float64, 0, 1000)
	var o Online
	for i := 0; i < 1000; i++ {
		x := r.Normal(3, 2)
		xs = append(xs, x)
		o.Push(x)
	}
	s := Summarize(xs)
	if o.N() != s.N {
		t.Fatalf("N = %d, want %d", o.N(), s.N)
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("Mean", o.Mean(), s.Mean)
	approx("Variance", o.Variance(), s.Variance)
	approx("StdDev", o.StdDev(), s.StdDev)
	if o.Min() != s.Min || o.Max() != s.Max {
		t.Errorf("min/max = %v/%v, want %v/%v", o.Min(), o.Max(), s.Min, s.Max)
	}
}

// TestOnlineEmptyAndSingle pins the NaN edge cases.
func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if !math.IsNaN(o.Mean()) || !math.IsNaN(o.Variance()) || !math.IsNaN(o.Min()) || !math.IsNaN(o.Max()) {
		t.Error("empty accumulator must report NaN statistics")
	}
	o.Push(4)
	if o.Mean() != 4 || o.Min() != 4 || o.Max() != 4 {
		t.Errorf("single-observation stats wrong: mean %v min %v max %v", o.Mean(), o.Min(), o.Max())
	}
	if !math.IsNaN(o.Variance()) {
		t.Error("variance of one observation must be NaN")
	}
	iv := o.MeanCI(NewTQuantiles(0.95))
	if !math.IsNaN(iv.Lower) || !math.IsNaN(iv.Upper) {
		t.Error("CI of one observation must have NaN bounds")
	}
}

// TestTQuantilesMatchStudentT: the memo returns StudentTQuantile's
// bits for every df, whether computed or remembered, and computes each
// df once.
func TestTQuantilesMatchStudentT(t *testing.T) {
	q := NewTQuantiles(0.95)
	for pass := 0; pass < 2; pass++ {
		for df := 1; df <= 60; df++ {
			if got, want := q.critical(df), StudentTQuantile(0.975, float64(df)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pass %d df %d: memo %v, StudentTQuantile %v", pass, df, got, want)
			}
		}
	}
	if len(q.byDF) != 60 {
		t.Fatalf("memo holds %d entries for 60 degrees of freedom", len(q.byDF))
	}
}

// TestOnlineMeanCI checks the Student-t interval against a hand
// computation: n=8, t(0.975, 7) = 2.3646.
func TestOnlineMeanCI(t *testing.T) {
	var o Online
	for _, x := range []float64{1, 2, 3, 4, 5, 6, 7, 8} {
		o.Push(x)
	}
	iv := o.MeanCI(NewTQuantiles(0.95))
	sd := o.StdDev()
	wantHW := 2.3646 * sd / math.Sqrt(8)
	if math.Abs(iv.Center-4.5) > 1e-12 {
		t.Errorf("center = %v, want 4.5", iv.Center)
	}
	if math.Abs((iv.Upper-iv.Center)-wantHW) > 1e-3 {
		t.Errorf("half width = %v, want %v", iv.Upper-iv.Center, wantHW)
	}
	if iv.Lower > 4.5 || iv.Upper < 4.5 {
		t.Error("CI must contain its center")
	}
}

// TestStudentTQuantile pins reference values and the normal limit.
func TestStudentTQuantile(t *testing.T) {
	cases := []struct {
		p, df, want, tol float64
	}{
		{0.975, 7, 2.3646, 1e-3},
		{0.975, 1, 12.706, 1e-2},
		{0.95, 10, 1.8125, 1e-3},
		{0.5, 5, 0, 1e-9},
		{0.025, 7, -2.3646, 1e-3},
	}
	for _, c := range cases {
		got := StudentTQuantile(c.p, c.df)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("StudentTQuantile(%v, %v) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
	if g, n := StudentTQuantile(0.975, 1e8), NormalQuantile(0.975); math.Abs(g-n) > 1e-4 {
		t.Errorf("huge-df quantile %v should degrade to normal %v", g, n)
	}
	if !math.IsNaN(StudentTQuantile(0, 5)) || !math.IsNaN(StudentTQuantile(1, 5)) {
		t.Error("quantile outside (0,1) must be NaN")
	}
}

// studentTQuantile128 is StudentTQuantile with its bisection always
// run for all 128 steps: the oracle for the early stop at the fixed
// point.
func studentTQuantile128(p, df float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		return math.NaN()
	}
	if p < 0.5 {
		return -studentTQuantile128(1-p, df)
	}
	if math.IsInf(df, 1) || df > 1e6 {
		return NormalQuantile(p)
	}
	if df <= 0 {
		return math.NaN()
	}
	target := 1 - p
	lo, hi := 0.0, 1.0
	for studentTSF(hi, df) > target && hi < 1e18 {
		hi *= 2
	}
	for i := 0; i < 128; i++ {
		mid := (lo + hi) / 2
		if studentTSF(mid, df) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestStudentTQuantileStopsAtFixedPoint: stopping the bisection once
// lo and hi are adjacent floats returns the bits all 128 steps return,
// over tails down to 1e-9 and 1-1e-12, the median (whose bisection
// never reaches a fixed point) and fractional and integer df.
func TestStudentTQuantileStopsAtFixedPoint(t *testing.T) {
	ps := []float64{0.5, 1 - 1e-12}
	for _, q := range []float64{1e-9, 1e-6, 1e-4, 1e-3, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.499} {
		ps = append(ps, q, 1-q)
	}
	var dfs []float64
	for df := 0.5; df <= 40; df += 0.25 {
		dfs = append(dfs, df)
	}
	dfs = append(dfs, 63, 64.5, 99, 100, 127.3, 250, 511, 1000, 1999.5, 3000)
	for _, p := range ps {
		for _, df := range dfs {
			got, want := StudentTQuantile(p, df), studentTQuantile128(p, df)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("StudentTQuantile(%v, %v) = %v, want the 128-step %v", p, df, got, want)
			}
		}
	}
}

// TestReservoirExactUnderCapacity checks that quantiles are exact while
// the stream fits in the reservoir.
func TestReservoirExactUnderCapacity(t *testing.T) {
	res := NewReservoir(64, *NewRNG(1))
	var xs []float64
	r := NewRNG(2)
	for i := 0; i < 50; i++ {
		x := r.Float64()
		xs = append(xs, x)
		res.Push(x)
	}
	sort.Float64s(xs)
	for _, p := range []float64{0, 0.05, 0.5, 0.95, 1} {
		want := percentile(xs, p)
		if got := res.Quantile(p); got != want {
			t.Errorf("Quantile(%v) = %v, want exact %v", p, got, want)
		}
	}
	if len(res.xs) != 50 || res.seen != 50 {
		t.Errorf("held/seen = %d/%d, want 50/50", len(res.xs), res.seen)
	}
}

// TestReservoirOverCapacity checks capacity bounds, determinism, and
// rough distributional sanity past the capacity.
func TestReservoirOverCapacity(t *testing.T) {
	run := func() *Reservoir {
		res := NewReservoir(128, *NewRNG(3))
		r := NewRNG(4)
		for i := 0; i < 10000; i++ {
			res.Push(r.Float64())
		}
		return res
	}
	a, b := run(), run()
	if len(a.xs) != 128 || a.seen != 10000 {
		t.Fatalf("held/seen = %d/%d, want 128/10000", len(a.xs), a.seen)
	}
	for _, p := range []float64{0.05, 0.5, 0.95} {
		if a.Quantile(p) != b.Quantile(p) {
			t.Errorf("same seed, different Quantile(%v): %v vs %v", p, a.Quantile(p), b.Quantile(p))
		}
	}
	if med := a.Quantile(0.5); med < 0.35 || med > 0.65 {
		t.Errorf("uniform median estimate %v implausible", med)
	}
}

// TestAggregatorSteadyStateAllocs pins the sweep's aggregation path:
// once warm, pushing an observation into the Online accumulator and
// the Reservoir, and querying a reservoir quantile, performs no
// allocation — the per-trial aggregation cost is pure arithmetic.
func TestAggregatorSteadyStateAllocs(t *testing.T) {
	var o Online
	res := NewReservoir(32, *NewRNG(5))
	r := NewRNG(6)
	for i := 0; i < 100; i++ { // warm: fill the reservoir and its scratch
		x := r.Float64()
		o.Push(x)
		res.Push(x)
	}
	res.Quantile(0.5)
	allocs := testing.AllocsPerRun(200, func() {
		x := r.Float64()
		o.Push(x)
		res.Push(x)
		res.Quantile(0.5)
	})
	if allocs != 0 {
		t.Errorf("steady-state aggregation allocated %.1f times per push, want 0", allocs)
	}
}
