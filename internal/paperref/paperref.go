// Package paperref encodes the published numbers of the FAST '08
// study "Are Disks the Dominant Contributor for Storage Failures? A
// Comprehensive Study of Storage Subsystem Failure Characteristics"
// (Jiang, Hu, Zhou, Kanevsky) as typed Go data with citations, so the
// reproduction's Monte-Carlo confidence intervals (internal/sweep) can
// be confronted with the paper finding by finding instead of by eye.
//
// Every Finding carries the paper's abridged claim, its section, and a
// list of Targets; every Target ties one sweep metric name
// (internal/sweep.Metrics) to the numeric band the paper publishes for
// it, with the table or figure the number comes from. Point values
// read off figures carry a band representing the read-off tolerance
// (roughly ±15% unless the paper states a range); claims the paper
// states as ranges ("20-55%") carry that range verbatim.
//
// internal/expreport joins a sweep result against this registry and
// renders EXPERIMENTS.md: paper value vs reproduction point estimate,
// 95% CI, spread quantiles, and a within/outside verdict per target.
package paperref

import (
	"fmt"
	"math"
)

// Unit describes how a target's numbers are compared and formatted.
type Unit int

// Target units.
const (
	// Fraction is a share or rate in [0, 1], rendered as a percentage.
	Fraction Unit = iota
	// Ratio is a dimensionless multiple, rendered with an "x" suffix.
	Ratio
	// Count is an absolute tally, rendered as an integer.
	Count
)

// ParseUnit maps a unit's serialized name — "fraction", "ratio",
// "count", the vocabulary scenario files use — to its Unit. The second
// result is false for anything else (including the empty string).
func ParseUnit(s string) (Unit, bool) {
	switch s {
	case "fraction":
		return Fraction, true
	case "ratio":
		return Ratio, true
	case "count":
		return Count, true
	}
	return Count, false
}

// UnitOf returns the display unit the registry uses for a metric, so
// user-authored assertion bands (internal/scenario) render in the same
// convention as the paper's own band for that metric. The second
// result is false when no registry target names the metric.
func UnitOf(metric string) (Unit, bool) {
	for _, f := range Findings {
		for _, tg := range f.Targets {
			if tg.Metric == metric {
				return tg.Unit, true
			}
		}
	}
	return Count, false
}

// Format renders a value in the unit's display convention.
func (u Unit) Format(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	switch u {
	case Fraction:
		return fmt.Sprintf("%.2f%%", v*100)
	case Ratio:
		return fmt.Sprintf("%.2fx", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// Band is an inclusive numeric range read from the paper. Lo == Hi
// encodes an exact published value; Hi may be +Inf for open-ended
// claims ("varies strongly", "at least ...").
type Band struct {
	Lo, Hi float64
}

// Intersects reports whether [lo, hi] overlaps the band.
func (b Band) Intersects(lo, hi float64) bool {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return false
	}
	return lo <= b.Hi && hi >= b.Lo
}

// Format renders the band in the unit's display convention.
func (b Band) Format(u Unit) string {
	if math.IsInf(b.Hi, 1) {
		return "≥ " + u.Format(b.Lo)
	}
	if b.Lo == b.Hi {
		return u.Format(b.Lo)
	}
	return u.Format(b.Lo) + " – " + u.Format(b.Hi)
}

// Target ties one sweep metric to the paper value it reproduces.
type Target struct {
	// Metric is the sweep metric name (internal/sweep.Metrics).
	Metric string
	// Band is the paper's published value or range for the statistic.
	Band Band
	// Unit selects the comparison/display convention.
	Unit Unit
	// Source cites where in the paper the number comes from.
	Source string
	// Note qualifies the comparison (read-off tolerance, exclusions).
	Note string
	// ScalesWithFleet marks absolute tallies published for the full
	// ~39,000-system population: the band must be multiplied by the
	// sweep's population scale before comparing.
	ScalesWithFleet bool
}

// Finding is one of the paper's numbered findings (1-11), or the
// population context (ID 0), with the published values backing it.
type Finding struct {
	// ID is the paper's finding number; 0 is the Table 1 population
	// context that anchors every per-rate statistic.
	ID int
	// Title abridges the finding the way ARCHITECTURE.md's
	// traceability table does.
	Title string
	// Claim is the paper's wording, abridged.
	Claim string
	// Section locates the finding's discussion in the paper.
	Section string
	// Targets are the published numbers confronted by sweep metrics.
	Targets []Target
}

// pct builds a Fraction band from percentage bounds (4.6 = 4.6%).
func pct(lo, hi float64) Band { return Band{Lo: lo / 100, Hi: hi / 100} }

// Findings is the registry, in paper order: the Table 1 population
// context followed by Findings 1-11. Every numbered finding tracked in
// ARCHITECTURE.md's traceability table appears here with at least one
// numeric target.
var Findings = []Finding{
	{
		ID:      0,
		Title:   "Studied population and failure tally",
		Claim:   "About 39,000 commercially deployed storage systems with ~1,800,000 disks, logging ~39,000 storage subsystem failures across 155,000 shelf enclosures over 44 months.",
		Section: "§2.3, Table 1",
		Targets: []Target{
			{
				Metric: "events_visible", Band: Band{Lo: 31000, Hi: 47000}, Unit: Count,
				Source:          "Table 1 (event counts summed across classes)",
				Note:            "±20% band, scaled by the sweep's population scale. The reproduction calibrates per-disk-year rates, and its deployment schedule accumulates more disk exposure than the paper's fleet did, so the absolute tally runs high — an expected, documented divergence, not a rate miscalibration (every AFR target below is rate-based)",
				ScalesWithFleet: true,
			},
		},
	},
	{
		ID:      1,
		Title:   "Disks are not the dominant contributor",
		Claim:   "Disk failures contribute 20-55% of storage subsystem failures depending on system class; physical interconnect failures contribute 27-68%.",
		Section: "§4.1, Finding 1 (Table 2, Figure 4(a))",
		Targets: []Target{
			{Metric: "disk_share_nearline", Band: pct(20, 55), Unit: Fraction, Source: "Finding 1"},
			{Metric: "disk_share_lowend", Band: pct(20, 55), Unit: Fraction, Source: "Finding 1", Note: "the reproduction's low-end disk share sits at this band's lower edge (core.finding1 accepts 15-60% for reduced-scale runs)"},
			{Metric: "disk_share_midrange", Band: pct(20, 55), Unit: Fraction, Source: "Finding 1"},
			{Metric: "disk_share_highend", Band: pct(20, 55), Unit: Fraction, Source: "Finding 1"},
			{Metric: "pi_share_nearline", Band: pct(27, 68), Unit: Fraction, Source: "Finding 1"},
			{Metric: "pi_share_lowend", Band: pct(27, 68), Unit: Fraction, Source: "Finding 1"},
			{Metric: "pi_share_midrange", Band: pct(27, 68), Unit: Fraction, Source: "Finding 1"},
			{Metric: "pi_share_highend", Band: pct(27, 68), Unit: Fraction, Source: "Finding 1"},
		},
	},
	{
		ID:      2,
		Title:   "Worse disks, better subsystems",
		Claim:   "Near-line SATA disks show ~1.9% disk AFR against < 0.9% for low-end enterprise FC disks, yet near-line subsystem AFR (~3.3%) stays below low-end subsystem AFR (~4.6%).",
		Section: "§4.1, Finding 2 (Figure 4(b))",
		Targets: []Target{
			{Metric: "disk_afr_nearline", Band: pct(1.6, 2.2), Unit: Fraction, Source: "Finding 2", Note: "~1.9% ±15% read-off"},
			{Metric: "disk_afr_lowend", Band: pct(0, 0.9), Unit: Fraction, Source: "Finding 2"},
			{Metric: "afr_total_nearline", Band: pct(2.8, 3.8), Unit: Fraction, Source: "Figure 4(b)", Note: "~3.3% ±15% read-off"},
			{Metric: "afr_total_lowend", Band: pct(3.9, 5.3), Unit: Fraction, Source: "Figure 4(b)", Note: "~4.6% ±15% read-off"},
			{Metric: "afr_total_midrange", Band: pct(2.0, 2.8), Unit: Fraction, Source: "Figure 4(b)", Note: "~2.4% ±15% read-off"},
			{Metric: "afr_total_highend", Band: pct(1.8, 2.5), Unit: Fraction, Source: "Figure 4(b)", Note: "~2.1% ±15% read-off; the reproduction's high-end calibration runs ~0.3pp above the figure"},
		},
	},
	{
		ID:      3,
		Title:   "A problematic disk family doubles subsystem AFR",
		Claim:   "Storage subsystems deploying the problematic disk family H show about twice the AFR of subsystems with other families, through elevated disk, protocol and performance failure rates.",
		Section: "§4.2, Finding 3 (Figure 5)",
		Targets: []Target{
			{Metric: "family_h_afr_ratio", Band: Band{Lo: 1.5, Hi: 2.5}, Unit: Ratio, Source: "Finding 3", Note: "\"about 2x\" ±25%"},
		},
	},
	{
		ID:      4,
		Title:   "Disk AFR travels, subsystem AFR does not",
		Claim:   "The same disk model shows a stable disk AFR across shelf enclosures and system classes, while its storage subsystem AFR varies strongly with the surrounding environment.",
		Section: "§4.2, Finding 4 (Figure 5)",
		Targets: []Target{
			{Metric: "afr_spread_disk", Band: pct(0, 25), Unit: Fraction, Source: "Finding 4", Note: "stable: relative std across environments under ~25%"},
			{Metric: "afr_spread_subsys", Band: Band{Lo: 0.15, Hi: math.Inf(1)}, Unit: Fraction, Source: "Finding 4", Note: "varies strongly: relative std at least ~15%, well above the disk spread"},
		},
	},
	{
		ID:      5,
		Title:   "AFR does not grow with disk capacity",
		Claim:   "Within a disk family, larger-capacity models show the same or lower AFR than smaller ones — capacity growth does not degrade reliability.",
		Section: "§4.2, Finding 5 (Figure 5)",
		Targets: []Target{
			{Metric: "afr_capacity_ratio", Band: Band{Lo: 0.6, Hi: 1.25}, Unit: Ratio, Source: "Finding 5", Note: "mean larger/smaller disk AFR ratio within families; >1.25 would contradict the finding"},
		},
	},
	{
		ID:      6,
		Title:   "Shelf enclosure model matters",
		Claim:   "The shelf enclosure model significantly shifts physical interconnect failure rates, and different shelf models win for different disk models (all comparisons significant at 99.5% on the full population).",
		Section: "§4.2, Finding 6 (Figure 6)",
		Targets: []Target{
			{Metric: "shelf_model_pi_delta", Band: pct(10, 30), Unit: Fraction, Source: "Figure 6", Note: "mean relative PI-AFR difference between shelf models A and B over disks A-2/A-3/D-2/D-3, read off the figure"},
		},
	},
	{
		ID:      7,
		Title:   "Multipathing works",
		Claim:   "Subsystems with two independent interconnects see 30-40% lower subsystem AFR than single-path ones; the physical interconnect AFR alone drops 50-60%.",
		Section: "§4.3, Finding 7 (Figure 7)",
		Targets: []Target{
			{Metric: "multipath_total_reduction", Band: pct(30, 40), Unit: Fraction, Source: "Finding 7"},
			{Metric: "multipath_pi_reduction", Band: pct(50, 60), Unit: Fraction, Source: "Finding 7"},
		},
	},
	{
		ID:      8,
		Title:   "Near-disk failures are bursty; disk failures are not",
		Claim:   "Physical interconnect, protocol and performance failures arrive far burstier than disk failures; the Gamma distribution best fits disk failure gaps while the bursty types fit no common distribution.",
		Section: "§5.1, Finding 8 (Figure 9(a))",
		Targets: []Target{
			{Metric: "burst_shelf_disk", Band: pct(0, 25), Unit: Fraction, Source: "Figure 9(a)", Note: "the disk-gap CDF at 10^4 s sits near the axis; the paper's claim is the contrast with burst_shelf_pi, so only the upper bound is meaningful"},
			{Metric: "burst_shelf_pi", Band: pct(50, 70), Unit: Fraction, Source: "Figure 9(a)", Note: "interconnect-gap CDF ~0.6 at 10^4 s"},
		},
	},
	{
		ID:      9,
		Title:   "Shelf-spanning RAID groups are less bursty than shelves",
		Claim:   "RAID groups, which span about three shelves on average, show lower temporal failure locality than individual shelves: ~30% of RAID-group gaps fall under 10^4 seconds against ~48% of shelf gaps.",
		Section: "§5.1, Finding 9 (Figures 8, 9)",
		Targets: []Target{
			{Metric: "burst_shelf_overall", Band: pct(43, 53), Unit: Fraction, Source: "Figure 9(a)", Note: "~48% ±5pp read-off. The reproduction's pooled gap CDF runs less bursty than the paper's in absolute level; the finding's ordering (shelf > RAID group, interconnect ≫ disk) reproduces — see Finding 10's criterion"},
			{Metric: "burst_rg_overall", Band: pct(25, 35), Unit: Fraction, Source: "Figure 9(b)", Note: "~30% ±5pp read-off; same absolute-level caveat as burst_shelf_overall"},
		},
	},
	{
		ID:      10,
		Title:   "RAID groups are still bursty",
		Claim:   "Even spanning shelves, RAID-group failures keep strong temporal locality — multiple shelves share physical interconnects, so a network fault can still hit several disks of one RAID group.",
		Section: "§5.1, Finding 10 (Figure 9(b))",
		Targets: []Target{
			{Metric: "burst_rg_overall", Band: Band{Lo: 0.15, Hi: math.Inf(1)}, Unit: Fraction, Source: "Finding 10", Note: "strong locality: well above an independent-arrivals baseline"},
		},
	},
	{
		ID:      11,
		Title:   "Failures are not independent",
		Claim:   "For every failure type the empirical probability of a second same-shelf failure within two weeks far exceeds the P(1)^2/2 the independence assumption predicts — about 6x for disk failures and 10-25x for physical interconnects.",
		Section: "§5.2, Finding 11 (Figure 10)",
		Targets: []Target{
			{Metric: "corr_disk_shelf", Band: Band{Lo: 4, Hi: 8}, Unit: Ratio, Source: "Figure 10(a)", Note: "~6x ±2 read-off"},
			{Metric: "corr_pi_shelf", Band: Band{Lo: 10, Hi: 25}, Unit: Ratio, Source: "Figure 10(a)"},
		},
	},
}
