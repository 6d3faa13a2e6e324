package core

import (
	"math"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

// Degenerate-input robustness: every analysis must behave sanely on
// empty, all-recovered, and single-event datasets rather than panic or
// emit garbage — the failure-injection counterpart of the happy-path
// tests.

func TestAnalysesOnEmptyDataset(t *testing.T) {
	f := craftedFleet()
	ds := NewDataset(f, nil)

	bs := ds.AFRByClass(Filter{})
	for _, b := range bs {
		if b.TotalEvents() != 0 || b.TotalAFR() != 0 {
			t.Error("empty dataset must have zero AFR")
		}
		if b.DiskYears <= 0 {
			t.Error("exposure must still be counted")
		}
	}

	g := ds.Gaps(ByShelf, Filter{})
	if g.Overall.Len() != 0 || g.Containers != 0 {
		t.Error("no events, no gaps")
	}
	if got := g.OverallFractionWithin(BurstThreshold); !math.IsNaN(got) {
		t.Errorf("fraction over empty sample should be NaN, got %g", got)
	}
	if g.BestFitName() != "" {
		t.Error("no fits possible on empty data")
	}
	if gof := g.GammaGOF(0); !math.IsNaN(gof.P) {
		t.Error("GOF on empty data should be NaN")
	}

	for _, r := range ds.Correlation(ByShelf, CorrelationOptions{}) {
		if r.CountP1 != 0 || r.CountP2 != 0 {
			t.Error("no events, no counts")
		}
		if !math.IsNaN(r.Ratio) {
			t.Error("ratio undefined with P1=0")
		}
	}

	for _, fd := range ds.EvaluateFindings() {
		_ = fd // must simply not panic
	}
	if ds.DetectionLagBound() != 0 {
		t.Error("no events, no lag")
	}
}

func TestAnalysesOnAllRecoveredDataset(t *testing.T) {
	f := craftedFleet()
	events := []failmodel.Event{
		ev(4, f, 1000, failmodel.PhysicalInterconnect, true),
		ev(5, f, 2000, failmodel.PhysicalInterconnect, true),
	}
	ds := NewDataset(f, events)
	bs := ds.AFRByClass(Filter{})
	for _, b := range bs {
		if b.TotalEvents() != 0 {
			t.Error("recovered events must not count as subsystem failures")
		}
	}
}

func TestDatasetSortsUnsortedEvents(t *testing.T) {
	f := craftedFleet()
	events := []failmodel.Event{
		ev(0, f, 50000, failmodel.DiskFailure, false),
		ev(1, f, 1000, failmodel.DiskFailure, false),
	}
	ds := NewDataset(f, events)
	if ds.Events[0].Time > ds.Events[1].Time {
		t.Error("NewDataset must sort events")
	}
}

func TestGapAnalysisSingleEventContainers(t *testing.T) {
	f := craftedFleet()
	// One event per shelf: zero gaps, zero multi-failure containers.
	events := []failmodel.Event{
		ev(0, f, 1000, failmodel.DiskFailure, false),
		ev(2, f, 2000, failmodel.DiskFailure, false),
		ev(4, f, 3000, failmodel.DiskFailure, false),
	}
	ds := NewDataset(f, events)
	g := ds.Gaps(ByShelf, Filter{})
	if g.Overall.Len() != 0 || g.Containers != 0 {
		t.Errorf("single-event shelves must contribute nothing: %d gaps, %d containers",
			g.Overall.Len(), g.Containers)
	}
}

// TestBurstShapeAblation documents a load-bearing design choice:
// the singleton-heavy burst-size distribution is what lets one
// generator match both Figure 9 (burstiness) and Figure 10 (P(2)
// inflation). Raising the singleton share with the event rate held
// fixed must push the interconnect P(2) ratio toward independence.
func TestBurstShapeAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("three simulations")
	}
	ratioFor := func(singleton float64) float64 {
		params := failmodel.DefaultParams()
		params.PIBurst = failmodel.BurstSize{SingletonProb: singleton, ExtraMean: 1.0}
		f := fleet.BuildDefault(0.03, 77)
		res := sim.Run(f, params, 78)
		ds := NewDataset(f, res.Events)
		for _, r := range ds.Correlation(ByShelf, CorrelationOptions{}) {
			if r.Type == failmodel.PhysicalInterconnect {
				return r.Ratio
			}
		}
		return math.NaN()
	}
	low := ratioFor(0.10)  // almost every episode is a burst
	mid := ratioFor(0.45)  // the calibrated default
	high := ratioFor(0.95) // almost every episode is a singleton
	t.Logf("PI P(2) inflation vs singleton share: 0.10 -> %.1fx, 0.45 -> %.1fx, 0.95 -> %.1fx", low, mid, high)
	if !(high < mid) || !(mid < low*3) { // monotone trend with sampling slack
		t.Errorf("inflation should fall as bursts disappear: %.1f, %.1f, %.1f", low, mid, high)
	}
	if high > 6 {
		t.Errorf("singleton-only episodes should approach independence, got %.1fx", high)
	}
}
