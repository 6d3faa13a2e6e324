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
	sameBits("Variance", p.delta.Variance(), o.Variance())
	sameBits("StdDev", p.StdDev(), o.StdDev())
	pci, oci := p.MeanCI(NewTQuantiles(0.95)), o.MeanCI(NewTQuantiles(0.95))
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
