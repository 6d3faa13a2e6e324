package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// Analysis holds the statistics, each computed once per dataset, that
// both the Findings 1–11 verdicts and the sweep's metric vector read.
// It is read-only once built.
type Analysis struct {
	// Classes is Figure 4(b)'s breakdown (family H excluded) indexed by
	// SystemClass; a class without systems has Systems == 0.
	Classes   []Breakdown
	Spread    EnvSpread         // Finding 4
	FamilyH   FamilyHComparison // Finding 3
	Capacity  CapacityPairs     // Finding 5
	Shelf     ShelfComparisons  // Finding 6, Figure 6
	Multipath PathComparisons   // Finding 7, Figure 7
	// ShelfGaps and RAIDGroupGaps are Figure 9, behind Findings 8–10.
	ShelfGaps, RAIDGroupGaps *GapAnalysis
	// ShelfCorrelation and RAIDGroupCorrelation are Figure 10(a) and
	// (b), one result per failure type, behind Finding 11.
	ShelfCorrelation, RAIDGroupCorrelation []CorrelationResult
}

// Analyze computes the shared statistics; Findings adds only the tests.
// Each scope's event index is built once, after the breakdowns, and
// serves that scope's gap and correlation passes; only one index is
// alive at a time.
func (ds *Dataset) Analyze() *Analysis {
	a := &Analysis{
		Classes:   ds.classBreakdowns(Filter{ExcludeFamily: fleet.ProblemFamily}),
		Spread:    ds.EnvAFRSpread(),
		FamilyH:   ds.FamilyH(),
		Capacity:  ds.CapacityPairs(),
		Shelf:     ds.ShelfComparisons(),
		Multipath: ds.PathComparisons(),
	}
	evs, runs := ds.containerRuns(ByShelf, Filter{})
	a.ShelfGaps = gapsOf(ByShelf, evs, runs)
	a.ShelfCorrelation = ds.correlationOf(ByShelf, simtime.SecondsPerYear, evs, runs)
	evs, runs = ds.containerRuns(ByRAIDGroup, Filter{})
	a.RAIDGroupGaps = gapsOf(ByRAIDGroup, evs, runs)
	a.RAIDGroupCorrelation = ds.correlationOf(ByRAIDGroup, simtime.SecondsPerYear, evs, runs)
	return a
}

// FamilyHComparison is Finding 3's comparison: systems using the
// problematic disk family H against those using any other family,
// within the classes that deploy H so the class mix does not confound
// it.
type FamilyHComparison struct {
	H, Others Breakdown
}

// FamilyH computes Finding 3's comparison.
func (ds *Dataset) FamilyH() FamilyHComparison {
	bs := ds.tally([]string{"family H", "other families"}, func(s *fleet.System) int {
		switch {
		case s.Class == fleet.NearLine: // no near-line system deploys family H
			return -1
		case s.DiskModel.Family == fleet.ProblemFamily:
			return 0
		}
		return 1
	}, Filter{})
	return FamilyHComparison{H: bs[0], Others: bs[1]}
}

// Ratio is the family-H subsystem AFR over the other families' (the
// paper: ~2x). NaN when either population is missing or the other
// families never fail.
func (c FamilyHComparison) Ratio() float64 {
	if c.H.Systems == 0 || c.Others.Systems == 0 || c.Others.TotalAFR() == 0 {
		return math.NaN()
	}
	return c.H.TotalAFR() / c.Others.TotalAFR()
}

// EnvSpread is Finding 4's cross-environment comparison: the average
// relative standard deviation (std/mean) of per-environment AFRs over
// every disk model deployed in at least two environments, computed
// separately for the disk AFR (the paper: stable) and the whole
// subsystem AFR (the paper: varies strongly). Models counts the disk
// models that entered the averages; when it is zero both spreads are
// NaN.
type EnvSpread struct {
	DiskRelStd   float64
	SubsysRelStd float64
	Models       int
}

// EnvAFRSpread computes Finding 4's spread comparison. Environments are
// (class, shelf model, disk model) groups with at least 200 disk-years
// of exposure; iteration is in sorted model order so the float averages
// are deterministic.
func (ds *Dataset) EnvAFRSpread() EnvSpread {
	// The key formats each environment's label once and records its
	// disk model; a model's environments keep AFRByGroup's sorted label
	// order.
	type env struct {
		class fleet.SystemClass
		shelf fleet.ShelfModel
		disk  fleet.DiskModel
	}
	labels := make(map[env]string)
	modelOf := make(map[string]fleet.DiskModel)
	bs := ds.AFRByGroup(func(s *fleet.System) (string, bool) {
		k := env{s.Class, s.ShelfModel, s.DiskModel}
		label, ok := labels[k]
		if !ok {
			label = fmt.Sprintf("%s|%s|%s", s.Class, s.ShelfModel, s.DiskModel)
			labels[k] = label
			modelOf[label] = s.DiskModel
		}
		return label, true
	}, Filter{})
	disks := make(map[fleet.DiskModel][]float64)
	totals := make(map[fleet.DiskModel][]float64)
	for _, b := range bs {
		if b.DiskYears < 200 { // skip tiny environments: AFR too noisy
			continue
		}
		m := modelOf[b.Label]
		disks[m] = append(disks[m], b.AFR[failmodel.DiskFailure])
		totals[m] = append(totals[m], b.TotalAFR())
	}
	// Iterate models in a fixed order: the spread averages are float
	// sums, so map order would leak into low-order output digits.
	models := make([]fleet.DiskModel, 0, len(disks))
	for m := range disks {
		models = append(models, m)
	}
	slices.SortFunc(models, func(a, b fleet.DiskModel) int {
		// A total order: same family+capacity can differ in type.
		return cmp.Or(strings.Compare(a.Family, b.Family), cmp.Compare(a.Capacity, b.Capacity), cmp.Compare(a.Type, b.Type))
	})
	var diskSpreads, totalSpreads []float64
	for _, m := range models {
		if len(disks[m]) >= 2 {
			diskSpreads = append(diskSpreads, relStd(disks[m]))
			totalSpreads = append(totalSpreads, relStd(totals[m]))
		}
	}
	if len(diskSpreads) == 0 {
		return EnvSpread{DiskRelStd: math.NaN(), SubsysRelStd: math.NaN()}
	}
	return EnvSpread{
		DiskRelStd:   stats.Mean(diskSpreads),
		SubsysRelStd: stats.Mean(totalSpreads),
		Models:       len(diskSpreads),
	}
}

// relStd returns the standard deviation divided by the mean.
func relStd(xs []float64) float64 {
	s := stats.Summarize(xs)
	if s.Mean == 0 {
		return math.NaN()
	}
	return s.StdDev / s.Mean
}

// capacityPairs lists the within-family (smaller, larger) capacity
// pairs Finding 5 compares, in MeanRatio's summation order.
var capacityPairs = [][2]fleet.DiskModel{
	{fleet.DiskA1, fleet.DiskA2}, {fleet.DiskA2, fleet.DiskA3},
	{fleet.DiskD1, fleet.DiskD2}, {fleet.DiskD2, fleet.DiskD3},
	{fleet.DiskC1, fleet.DiskC2}, {fleet.DiskF1, fleet.DiskF2},
	{fleet.DiskI1, fleet.DiskI2}, {fleet.DiskJ1, fleet.DiskJ2},
}

// CapacityPairs is Finding 5's comparison: the smaller and the larger
// capacity's breakdown (labeled by model name) for each capacityPairs
// entry with at least 5000 disk-years on both sides, in order.
type CapacityPairs [][2]Breakdown

// CapacityPairs computes Finding 5's comparison in one pass.
func (ds *Dataset) CapacityPairs() CapacityPairs {
	index := make(map[fleet.DiskModel]int) // a model may sit in two pairs
	var labels []string
	for _, p := range capacityPairs {
		for _, m := range p {
			if _, ok := index[m]; !ok {
				index[m] = len(labels)
				labels = append(labels, m.String())
			}
		}
	}
	bs := ds.tally(labels, func(s *fleet.System) int {
		if i, ok := index[s.DiskModel]; ok {
			return i
		}
		return -1
	}, Filter{})
	var out CapacityPairs
	for _, p := range capacityPairs {
		small, large := bs[index[p[0]]], bs[index[p[1]]]
		if small.DiskYears >= 5000 && large.DiskYears >= 5000 {
			out = append(out, [2]Breakdown{small, large})
		}
	}
	return out
}

// MeanRatio is the mean of the larger capacity's disk AFR over the
// smaller's across the pairs whose smaller capacity failed at all, and
// how many pairs entered it (the paper: at or below ~1). NaN with zero
// pairs when none did.
func (ps CapacityPairs) MeanRatio() (ratio float64, pairs int) {
	sum := 0.0
	for _, p := range ps {
		if small := p[0].AFR[failmodel.DiskFailure]; small != 0 {
			sum += p[1].AFR[failmodel.DiskFailure] / small
			pairs++
		}
	}
	if pairs == 0 {
		return math.NaN(), 0
	}
	return sum / float64(pairs), pairs
}

// CapacityAFRMeanRatio is CapacityPairs().MeanRatio().
func (ds *Dataset) CapacityAFRMeanRatio() (ratio float64, pairs int) {
	return ds.CapacityPairs().MeanRatio()
}

// shelfCompareModels are the low-end disk models the paper's Figure 6
// deploys with both shelf enclosure models, in panel order (PIDelta's
// summation order).
var shelfCompareModels = []fleet.DiskModel{fleet.DiskA2, fleet.DiskA3, fleet.DiskD2, fleet.DiskD3}

// ShelfComparison is one Figure 6 panel: low-end systems deploying one
// disk model in shelf enclosure model A against model B.
type ShelfComparison struct {
	Model fleet.DiskModel
	A, B  Breakdown
}

// ShelfComparisons is Finding 6's comparison: one panel per
// shelfCompareModels entry that both shelf models deploy, in order.
type ShelfComparisons []ShelfComparison

// ShelfComparisons computes Finding 6's comparison in one pass.
func (ds *Dataset) ShelfComparisons() ShelfComparisons {
	var labels []string
	for range shelfCompareModels {
		labels = append(labels, "Shelf Enclosure Model "+string(fleet.ShelfA), "Shelf Enclosure Model "+string(fleet.ShelfB))
	}
	bs := ds.tally(labels, func(s *fleet.System) int {
		side := 0
		switch {
		case s.Class != fleet.LowEnd:
			return -1
		case s.ShelfModel == fleet.ShelfB:
			side = 1
		case s.ShelfModel != fleet.ShelfA:
			return -1
		}
		for i, m := range shelfCompareModels {
			if s.DiskModel == m {
				return 2*i + side
			}
		}
		return -1
	}, Filter{})
	var out ShelfComparisons
	for i, m := range shelfCompareModels {
		if a, b := bs[2*i], bs[2*i+1]; a.Systems > 0 && b.Systems > 0 {
			out = append(out, ShelfComparison{Model: m, A: a, B: b})
		}
	}
	return out
}

// PIDelta is Finding 6's effect size: the mean relative physical
// interconnect AFR difference |A−B| / mean(A, B) over the panels with
// exposure on both sides and some interconnect failure; NaN when none
// has.
func (cs ShelfComparisons) PIDelta() float64 {
	sum, n := 0.0, 0
	for _, c := range cs {
		pa := c.A.AFR[failmodel.PhysicalInterconnect]
		pb := c.B.AFR[failmodel.PhysicalInterconnect]
		if c.A.DiskYears == 0 || c.B.DiskYears == 0 || pa+pb == 0 {
			continue
		}
		sum += math.Abs(pa-pb) / ((pa + pb) / 2)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// ShelfModelPIDelta is ShelfComparisons().PIDelta().
func (ds *Dataset) ShelfModelPIDelta() float64 {
	return ds.ShelfComparisons().PIDelta()
}

// multipathClasses are the classes with a dual-path population, in
// Figure 7's panel order (MeanReductions' summation order).
var multipathClasses = []fleet.SystemClass{fleet.MidRange, fleet.HighEnd}

// PathComparison is one Figure 7 panel: single-path against dual-path
// systems of one class, family H excluded so its elevated disk and
// protocol rates don't confound the path comparison.
type PathComparison struct {
	Class        fleet.SystemClass
	Single, Dual Breakdown
}

// PathComparisons is Finding 7's comparison, one panel per
// multipathClasses entry.
type PathComparisons []PathComparison

// PathComparisons computes Finding 7's comparison in one pass.
func (ds *Dataset) PathComparisons() PathComparisons {
	var labels []string
	for range multipathClasses {
		labels = append(labels, "Single Path", "Dual Paths")
	}
	bs := ds.tally(labels, func(s *fleet.System) int {
		side := 0
		if s.Paths == fleet.DualPath {
			side = 1
		}
		for i, c := range multipathClasses {
			if s.Class == c {
				return 2*i + side
			}
		}
		return -1
	}, Filter{ExcludeFamily: fleet.ProblemFamily})
	out := make(PathComparisons, len(multipathClasses))
	for i, c := range multipathClasses {
		out[i] = PathComparison{Class: c, Single: bs[2*i], Dual: bs[2*i+1]}
	}
	return out
}

// Observed reports whether the class has both path configurations.
func (c PathComparison) Observed() bool { return c.Single.Systems > 0 && c.Dual.Systems > 0 }

// Reductions are the fractional subsystem and physical interconnect
// AFR reductions from single to dual path.
func (c PathComparison) Reductions() (totalRed, piRed float64) {
	return 1 - c.Dual.TotalAFR()/c.Single.TotalAFR(),
		1 - c.Dual.AFR[failmodel.PhysicalInterconnect]/c.Single.AFR[failmodel.PhysicalInterconnect]
}

// MeanReductions is Finding 7's effect size: the panels' Reductions
// averaged, both NaN unless every panel is observed with nonzero
// single-path rates.
func (cs PathComparisons) MeanReductions() (totalRed, piRed float64) {
	sumTotal, sumPI := 0.0, 0.0
	for _, c := range cs {
		if !c.Observed() || c.Single.TotalAFR() == 0 || c.Single.AFR[failmodel.PhysicalInterconnect] == 0 {
			return math.NaN(), math.NaN()
		}
		t, p := c.Reductions()
		sumTotal += t
		sumPI += p
	}
	return sumTotal / float64(len(cs)), sumPI / float64(len(cs))
}

// MultipathReductions is PathComparisons().MeanReductions().
func (ds *Dataset) MultipathReductions() (totalRed, piRed float64) {
	return ds.PathComparisons().MeanReductions()
}
