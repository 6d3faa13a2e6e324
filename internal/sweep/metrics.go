package sweep

import (
	"math"

	"storagesubsys/internal/core"
	"storagesubsys/internal/experiments"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// MetricDef describes one summary statistic extracted from every
// trial's dataset: a stable name (JSON key and table row) and the
// paper reference the statistic reproduces, shown in the comparison
// table. The numeric bands the paper publishes for these references
// live as typed data in internal/paperref, which cmd/expreport joins
// against a sweep result to render EXPERIMENTS.md.
type MetricDef struct {
	Name  string
	Paper string
}

// Metrics is the fixed registry of per-trial summary statistics, in
// vector order: trialVector fills one float64 per entry and the
// aggregators are indexed the same way. Appending to this list is
// backward compatible; reordering changes every vector.
//
// Each entry below documents what the statistic measures, how
// trialVector computes it, and which paper table or figure it
// confronts. Units: *_share_* and burst_* metrics are fractions in
// [0, 1]; *_afr_* metrics are annualized failure rates per disk-year
// (multiply by 100 for the percentages the paper plots); *_ratio,
// corr_* and *_delta metrics are dimensionless ratios; the rest are
// counts.
var Metrics = []MetricDef{
	// events_visible counts the trial's visible storage subsystem
	// failures (multipath-recovered interconnect faults excluded), the
	// quantity the paper's Table 1 tallies per class: ~39,000 events
	// over 44 months at full scale, so the expected count scales
	// linearly with the sweep's population scale.
	{"events_visible", "Table 1: ~39,000 subsystem failures over 44 months at full scale"},
	// afr_total_<class> is the class's whole storage subsystem AFR —
	// Breakdown.TotalAFR over the Figure 4(b) per-class breakdown, with
	// the problematic disk family H excluded exactly as the paper's
	// figure excludes it. Paper values: near-line ~3.3%, low-end ~4.6%,
	// mid-range ~2.4%, high-end ~2.1%.
	{"afr_total_nearline", "Figure 4(b): near-line subsystem AFR ~3.3%"},
	{"afr_total_lowend", "Figure 4(b): low-end subsystem AFR ~4.6%"},
	{"afr_total_midrange", "Figure 4(b): mid-range subsystem AFR ~2.4%"},
	{"afr_total_highend", "Figure 4(b): high-end subsystem AFR ~2.1%"},
	// disk_share_<class> is disk failures' share of the class's visible
	// subsystem failures — Finding 1's headline statistic (Table 2 /
	// Figure 4(a) component breakdown): between 20% and 55% in every
	// class, never the dominant majority.
	{"disk_share_nearline", "Finding 1: disks are 20-55% of subsystem failures"},
	{"disk_share_lowend", "Finding 1: disks are 20-55% of subsystem failures"},
	{"disk_share_midrange", "Finding 1: disks are 20-55% of subsystem failures"},
	{"disk_share_highend", "Finding 1: disks are 20-55% of subsystem failures"},
	// pi_share_<class> is the physical interconnect share of the same
	// breakdown — the paper's counterpart claim that near-disk
	// components, not disks, dominate: 27-68% per class.
	{"pi_share_nearline", "Finding 1: physical interconnects are 27-68%"},
	{"pi_share_lowend", "Finding 1: physical interconnects are 27-68%"},
	{"pi_share_midrange", "Finding 1: physical interconnects are 27-68%"},
	{"pi_share_highend", "Finding 1: physical interconnects are 27-68%"},
	// disk_afr_nearline / disk_afr_lowend are the disk-failure-only
	// AFRs behind Finding 2's inversion: near-line SATA disks fail more
	// (~1.9%) than low-end enterprise FC disks (< 0.9%), yet near-line
	// subsystems fail less (compare afr_total_nearline vs
	// afr_total_lowend).
	{"disk_afr_nearline", "Finding 2: SATA disk AFR ~1.9%"},
	{"disk_afr_lowend", "Finding 2: enterprise FC disk AFR < 0.9%"},
	// family_h_afr_ratio divides the subsystem AFR of systems deploying
	// the problematic disk family H by the other families', within the
	// classes that deploy H (core.FamilyHComparison.Ratio) — Finding
	// 3's ~2x elevation (Figure 5).
	{"family_h_afr_ratio", "Finding 3: family H doubles subsystem AFR (~2x)"},
	// burst_shelf_overall / burst_rg_overall are the fraction of
	// same-container failure gaps under the 10^4-second burst threshold,
	// per shelf and per RAID group — the left edges of the Figure 9
	// time-between-failure CDFs (~48% and ~30%). Their gap is Finding 9
	// (shelf-spanning RAID groups are less bursty than shelves) and the
	// RAID-group floor is Finding 10 (but still strongly bursty).
	{"burst_shelf_overall", "Figure 9(a): ~48% of shelf gaps < 10^4 s"},
	{"burst_rg_overall", "Figure 9(b): ~30% of RAID-group gaps < 10^4 s"},
	// burst_shelf_disk / burst_shelf_pi split the shelf gap CDF by
	// failure type — Finding 8's contrast: disk failure gaps are far
	// less bursty than physical interconnect gaps (whose CDF reaches
	// ~0.6 at 10^4 s in Figure 9(a)).
	{"burst_shelf_disk", "Finding 8: disk failure gaps far less bursty"},
	{"burst_shelf_pi", "Finding 8: interconnect gaps highly bursty"},
	// corr_disk_shelf / corr_pi_shelf are Figure 10(a)'s independence
	// ratios: the empirical probability of seeing a second same-type
	// failure in a shelf within two weeks over the P(1)^2/2 the
	// independence assumption predicts — ~6x for disk failures, 10-25x
	// for interconnects (Finding 11).
	{"corr_disk_shelf", "Figure 10(a): disk P(2) ~6x the independence prediction"},
	{"corr_pi_shelf", "Figure 10(a): interconnect P(2) 10-25x independence"},
	// findings_pass counts how many of the paper's Findings 1-11 the
	// trial reproduces (core.Analysis.Findings over the trial's one
	// Analysis); defined only when Config.Findings is set, NaN
	// otherwise.
	{"findings_pass", "11/11 findings reproduce (with -findings only)"},
	// mined_dropped counts log records the AutoSupport mining pipeline
	// could not resolve back into events — the reproduction's handle on
	// the paper's own methodology loss; defined only in Mine scenarios.
	{"mined_dropped", "log records the mining pipeline cannot resolve (Mine scenarios only)"},
	// afr_spread_disk / afr_spread_subsys are Finding 4's comparison
	// (core.EnvAFRSpread): the average relative standard deviation of
	// per-environment AFRs across disk models deployed in >= 2 (class,
	// shelf model) environments — low for the disk AFR (the disk is the
	// same product everywhere), high for the subsystem AFR (the
	// environment around it differs).
	{"afr_spread_disk", "Finding 4: disk AFR stable across environments (low relative spread)"},
	{"afr_spread_subsys", "Finding 4: subsystem AFR varies strongly across environments"},
	// afr_capacity_ratio is Finding 5's statistic
	// (core.CapacityAFRMeanRatio): the mean larger-capacity over
	// smaller-capacity disk AFR ratio within families — at or below ~1,
	// because AFR does not grow with disk size.
	{"afr_capacity_ratio", "Finding 5: AFR does not grow with capacity (larger/smaller ratio <= ~1)"},
	// shelf_model_pi_delta is Finding 6's effect size
	// (core.ShelfModelPIDelta): the mean relative difference
	// |A-B| / mean(A,B) of the physical interconnect AFR between shelf
	// enclosure models A and B across the low-end disk models the paper
	// compares in Figure 6 (A-2, A-3, D-2, D-3).
	{"shelf_model_pi_delta", "Figure 6: shelf enclosure model shifts interconnect AFR ~15-20%"},
	// multipath_total_reduction / multipath_pi_reduction are Finding 7's
	// dual-path effect (core.MultipathReductions; Figure 7), averaged
	// over the mid-range and high-end classes with family H excluded:
	// the fractional reduction in subsystem AFR (paper: 30-40%) and in
	// physical interconnect AFR (paper: 50-60%) from single-path to
	// dual-path configurations.
	{"multipath_total_reduction", "Figure 7: multipathing cuts subsystem AFR 30-40%"},
	{"multipath_pi_reduction", "Figure 7: multipathing cuts interconnect AFR 50-60%"},
}

// metricIndex returns the vector position of a metric name, -1 if
// unknown.
func metricIndex(name string) int {
	for i, m := range Metrics {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// trialVector computes the Metrics vector for one trial, appending
// into out (recycled by the caller). Every statistic except the event
// count and mined_dropped is read from one core.Analysis of the
// trial's dataset, which also yields the findings verdicts when
// findings is set. Entries that are undefined for the trial —
// findings_pass without Config.Findings, mined_dropped in non-mining
// scenarios, gap fractions with no gaps at tiny scales — are NaN; the
// collector skips NaN pushes so each metric tracks its own observation
// count.
func trialVector(env *experiments.Env, findings bool, out []float64) []float64 {
	out = out[:0]
	ds := env.Dataset

	visible := 0
	for _, e := range ds.Events {
		if e.Visible() {
			visible++
		}
	}
	out = append(out, float64(visible))

	a := ds.Analyze()

	// Per-class AFR totals, failure-type shares and disk AFRs, excluding
	// the problematic disk family as the paper's Figure 4(b) does; NaN
	// for a class without exposure.
	stat := func(b core.Breakdown, f func(core.Breakdown) float64) float64 {
		if b.DiskYears == 0 {
			return math.NaN()
		}
		return f(b)
	}
	for _, f := range []func(core.Breakdown) float64{
		core.Breakdown.TotalAFR,
		func(b core.Breakdown) float64 { return b.Share(failmodel.DiskFailure) },
		func(b core.Breakdown) float64 { return b.Share(failmodel.PhysicalInterconnect) },
	} {
		for _, b := range a.Classes {
			out = append(out, stat(b, f))
		}
	}
	diskAFR := func(b core.Breakdown) float64 { return b.AFR[failmodel.DiskFailure] }
	out = append(out, stat(a.Classes[fleet.NearLine], diskAFR), stat(a.Classes[fleet.LowEnd], diskAFR))

	out = append(out, a.FamilyH.Ratio())

	out = append(out,
		a.ShelfGaps.OverallFractionWithin(core.BurstThreshold),
		a.RAIDGroupGaps.OverallFractionWithin(core.BurstThreshold),
		a.ShelfGaps.FractionWithin(failmodel.DiskFailure, core.BurstThreshold),
		a.ShelfGaps.FractionWithin(failmodel.PhysicalInterconnect, core.BurstThreshold),
	)

	corrDisk, corrPI := math.NaN(), math.NaN()
	for _, r := range a.ShelfCorrelation {
		switch r.Type {
		case failmodel.DiskFailure:
			corrDisk = r.Ratio
		case failmodel.PhysicalInterconnect:
			corrPI = r.Ratio
		}
	}
	out = append(out, corrDisk, corrPI)

	if findings {
		pass := 0
		for _, fd := range a.Findings() {
			if fd.Pass {
				pass++
			}
		}
		out = append(out, float64(pass))
	} else {
		out = append(out, math.NaN())
	}

	if env.Config.Mine {
		out = append(out, float64(env.MinedDropped))
	} else {
		out = append(out, math.NaN())
	}

	if a.Spread.Models == 0 {
		out = append(out, math.NaN(), math.NaN())
	} else {
		out = append(out, a.Spread.DiskRelStd, a.Spread.SubsysRelStd)
	}

	capRatio, capPairs := a.Capacity.MeanRatio()
	if capPairs == 0 {
		out = append(out, math.NaN())
	} else {
		out = append(out, capRatio)
	}

	out = append(out, a.Shelf.PIDelta())

	totalRed, piRed := a.Multipath.MeanReductions()
	out = append(out, totalRed, piRed)

	if len(out) != len(Metrics) {
		panic("sweep: trialVector length diverged from the Metrics registry")
	}
	return out
}
