package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// TestComparisonsMatchLabelGroups checks each one-pass comparison
// against the per-panel label grouping it replaced: every side of every
// comparison equals the breakdown AFRByGroup computes for that panel
// alone, bit for bit.
func TestComparisonsMatchLabelGroups(t *testing.T) {
	ds := dataset(t)
	noH := Filter{ExcludeFamily: fleet.ProblemFamily}

	if got, want := ds.AFRByClass(noH), ds.Analyze().Classes; len(got) != len(fleet.Classes) || !reflect.DeepEqual(got, want) {
		t.Errorf("Analysis.Classes differs from AFRByClass")
	}

	h := ds.FamilyH()
	fam := ds.AFRByGroup(func(s *fleet.System) (string, bool) {
		if s.Class == fleet.NearLine {
			return "", false
		}
		if s.DiskModel.Family == fleet.ProblemFamily {
			return "family H", true
		}
		return "other families", true
	}, Filter{})
	if !reflect.DeepEqual([]Breakdown{h.H, h.Others}, fam) {
		t.Errorf("FamilyH differs from its label grouping")
	}

	models := ds.AFRByGroup(func(s *fleet.System) (string, bool) { return s.DiskModel.String(), true }, Filter{})
	byModel := map[string]Breakdown{}
	for _, b := range models {
		byModel[b.Label] = b
	}
	pairs := ds.CapacityPairs()
	if len(pairs) == 0 {
		t.Fatal("no qualifying capacity pair at 5% scale")
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p[0], byModel[p[0].Label]) || !reflect.DeepEqual(p[1], byModel[p[1].Label]) {
			t.Errorf("capacity pair %s/%s differs from the per-model grouping", p[0].Label, p[1].Label)
		}
	}

	shelves := ds.ShelfComparisons()
	if len(shelves) != len(shelfCompareModels) {
		t.Fatalf("%d of %d shelf panels observed at 5%% scale", len(shelves), len(shelfCompareModels))
	}
	for _, c := range shelves {
		want := ds.AFRByGroup(func(s *fleet.System) (string, bool) {
			if s.Class != fleet.LowEnd || s.DiskModel != c.Model {
				return "", false
			}
			return "Shelf Enclosure Model " + string(s.ShelfModel), true
		}, Filter{})
		if !reflect.DeepEqual([]Breakdown{c.A, c.B}, want) {
			t.Errorf("shelf panel %s differs from its label grouping", c.Model)
		}
	}
	for _, c := range ds.PathComparisons() {
		if want := ds.AFRByPathConfig(c.Class, noH); !reflect.DeepEqual([]Breakdown{c.Single, c.Dual}, want) {
			t.Errorf("path panel %s differs from AFRByPathConfig", c.Class)
		}
	}

	// The verdicts read the shared gap analyses and correlations
	// (ECDF.Values returns the backing slice); they must leave them as
	// a fresh analysis computes them.
	a := ds.Analyze()
	if !reflect.DeepEqual(a.Findings(), ds.EvaluateFindings()) {
		t.Error("Analysis.Findings differs from EvaluateFindings")
	}
	if !reflect.DeepEqual(a, ds.Analyze()) {
		t.Error("Findings mutated the shared Analysis")
	}
}

// breakdown is a labeled test Breakdown with one system and the given
// disk and interconnect AFRs.
func breakdown(label string, disk, pi float64) Breakdown {
	return Breakdown{
		Label: label, Systems: 1, DiskYears: 1,
		AFR: [failmodel.NumTypes]float64{failmodel.DiskFailure: disk, failmodel.PhysicalInterconnect: pi},
	}
}

// TestComparisonEdgeRules pins where each effect size and its verdict
// deliberately differ on degenerate comparisons.
func TestComparisonEdgeRules(t *testing.T) {
	// MeanRatio skips a pair whose smaller capacity never failed;
	// finding5 still judges it (any failure of the larger one fails it).
	pairs := CapacityPairs{
		{breakdown("A-1", 0, 0), breakdown("A-2", 0.01, 0)},
		{breakdown("D-1", 0.01, 0), breakdown("D-2", 0.02, 0)},
	}
	if r, n := pairs.MeanRatio(); r != 2 || n != 1 {
		t.Errorf("MeanRatio = %v over %d pairs, want 2 over 1", r, n)
	}
	if f := finding5(pairs); f.Pass || !strings.Contains(f.Detail, "A-1 0.00% vs A-2 1.00%") {
		t.Errorf("finding5 = %+v, want a failed verdict detailing the A pair", f)
	}
	if r, n := CapacityPairs(nil).MeanRatio(); !math.IsNaN(r) || n != 0 {
		t.Errorf("MeanRatio without pairs = %v, %d; want NaN, 0", r, n)
	}

	// A missing path configuration makes Reductions NaN, while
	// finding7 fails and still reports the observed panel.
	paths := PathComparisons{
		{Class: fleet.MidRange, Single: breakdown("Single Path", 0.01, 0.02)},
		{Class: fleet.HighEnd, Single: breakdown("Single Path", 0.01, 0.02), Dual: breakdown("Dual Paths", 0.01, 0.01)},
	}
	if tot, pi := paths.MeanReductions(); !math.IsNaN(tot) || !math.IsNaN(pi) {
		t.Errorf("MeanReductions with a missing panel = %v, %v; want NaN", tot, pi)
	}
	if f := finding7(paths); f.Pass || strings.Contains(f.Detail, "Mid-range") || !strings.Contains(f.Detail, "High-end: subsystem -33%, interconnect -50%") {
		t.Errorf("finding7 = %+v, want a failed verdict detailing only High-end", f)
	}

	// PIDelta skips panels without exposure on both sides or without
	// interconnect failures; finding6 judges every observed panel.
	shelves := ShelfComparisons{
		{Model: fleet.DiskA2, A: breakdown("A", 0, 0.75), B: breakdown("B", 0, 0.25)},
		{Model: fleet.DiskA3, A: breakdown("A", 0, 0.75), B: Breakdown{Systems: 1}},
		{Model: fleet.DiskD2, A: breakdown("A", 0, 0), B: breakdown("B", 0, 0)},
	}
	if d := shelves.PIDelta(); d != 1 {
		t.Errorf("PIDelta = %v, want 1", d)
	}
	if f := finding6(shelves); !strings.Contains(f.Detail, "D-2: shelf A wins") {
		t.Errorf("finding6 = %+v, want every panel judged", f)
	}
	if f := finding6(shelves[:1]); f.Detail != "insufficient shelf-model overlap" {
		t.Errorf("finding6 with one observed panel: %+v", f)
	}

	// The crafted fleet deploys family H only on dual-path mid-range
	// systems: excluding it leaves no dual-path panel, and a family
	// comparison whose other families never fail has no ratio.
	ds := NewDataset(craftedFleet(), nil)
	if tot, _ := ds.MultipathReductions(); !math.IsNaN(tot) {
		t.Errorf("MultipathReductions without a dual-path panel = %v, want NaN", tot)
	}
	if r := ds.FamilyH().Ratio(); !math.IsNaN(r) {
		t.Errorf("FamilyH ratio without failures = %v, want NaN", r)
	}
	if f := finding3(ds.FamilyH()); f.Pass || f.Detail != "missing family H population" {
		t.Errorf("finding3 = %+v", f)
	}
}
