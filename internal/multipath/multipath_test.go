package multipath

import (
	"math"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/stats"
)

func TestPredictedPIReduction(t *testing.T) {
	mix := failmodel.CauseMix{
		Causes:  []failmodel.Cause{failmodel.CauseCable, failmodel.CauseHBAPort, failmodel.CauseBackplane},
		Weights: []float64{0.3, 0.2, 0.5},
	}
	if got := PredictedPIReduction(mix); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("reduction %g, want 0.5", got)
	}
	empty := failmodel.CauseMix{}
	if PredictedPIReduction(empty) != 0 {
		t.Error("empty mix should predict no reduction")
	}
}

func TestIdealizedDualPathAFR(t *testing.T) {
	// The paper: one network fails ~2%/yr, idealized both-fail ~0.04%.
	got := IdealizedDualPathAFR(0.02)
	if math.Abs(got-0.0004) > 1e-12 {
		t.Errorf("idealized AFR %g, want 0.0004", got)
	}
}

func TestSimulateOverlapScalesWithRepairTime(t *testing.T) {
	r := stats.NewRNG(1)
	short := SimulateOverlap(0.05, 600, 200000, r)
	long := SimulateOverlap(0.05, 48*3600, 200000, stats.NewRNG(1))
	if short.Outages == 0 || long.Outages == 0 {
		t.Fatal("expected outages")
	}
	if long.DowntimeYears <= short.DowntimeYears {
		t.Errorf("longer repairs must increase double-down exposure: %g vs %g",
			long.DowntimeYears, short.DowntimeYears)
	}
	if short.OverlapFraction > 0.01 {
		t.Errorf("10-minute repairs should almost never overlap, got %g", short.OverlapFraction)
	}
}

func TestSimulateOverlapMatchesAnalytic(t *testing.T) {
	// With outage rate r and mean repair d, the long-run probability a
	// path is down is ~r*E[d]; double-down time fraction is its square.
	r := stats.NewRNG(2)
	rate := 0.5 // high rate to get measurable overlap
	median := 30 * 24 * 3600
	res := SimulateOverlap(rate, int64(median), 50000, r)
	// lognormal mean = median * exp(sigma^2/2), sigma = 0.8.
	meanRepairYears := float64(median) * math.Exp(0.32) / (365.25 * 86400)
	pDown := rate * meanRepairYears
	wantDouble := pDown * pDown * 50000
	if res.DowntimeYears < wantDouble/3 || res.DowntimeYears > wantDouble*3 {
		t.Errorf("double-down %g years, analytic estimate %g", res.DowntimeYears, wantDouble)
	}
}
