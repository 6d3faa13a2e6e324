package experiments

import (
	"fmt"
	"io"

	"storagesubsys/internal/core"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/multipath"
	"storagesubsys/internal/raid"
	"storagesubsys/internal/report"
	"storagesubsys/internal/sim"
)

// Table1 renders the population overview (paper Table 1): per-class
// system/shelf/disk/RAID-group counts and failure events by type.
func (env *Env) Table1(w io.Writer) {
	fmt.Fprintf(w, "Overview of studied storage systems (scale %.2f of the paper's population)\n\n", env.Config.Scale)
	headers := []string{"Class", "#Systems", "#Shelves", "#Disks", "DiskType", "#RAIDGrp", "Multipathing",
		"DiskFail", "PhysIntFail", "ProtoFail", "PerfFail"}
	var rows [][]string
	for _, r := range env.Dataset.Table1() {
		rows = append(rows, []string{
			r.Class.String(),
			fmt.Sprint(r.Systems), fmt.Sprint(r.Shelves), fmt.Sprint(r.Disks),
			r.DiskType, fmt.Sprint(r.RAIDGroups), r.Multipathing,
			fmt.Sprint(r.Events[failmodel.DiskFailure]),
			fmt.Sprint(r.Events[failmodel.PhysicalInterconnect]),
			fmt.Sprint(r.Events[failmodel.Protocol]),
			fmt.Sprint(r.Events[failmodel.Performance]),
		})
	}
	report.Table(w, headers, rows)
}

func breakdownBars(bs []core.Breakdown) []report.Bar {
	bars := make([]report.Bar, 0, len(bs))
	for _, b := range bs {
		bars = append(bars, report.Bar{
			Label: b.Label,
			Segments: []report.Segment{
				{Label: "disk", Value: b.AFR[failmodel.DiskFailure] * 100},
				{Label: "interconnect", Value: b.AFR[failmodel.PhysicalInterconnect] * 100},
				{Label: "protocol", Value: b.AFR[failmodel.Protocol] * 100},
				{Label: "performance", Value: b.AFR[failmodel.Performance] * 100},
			},
		})
	}
	return bars
}

// Fig4 renders the AFR breakdown per system class, with and without the
// problematic disk family H (paper Figure 4 a/b).
func (env *Env) Fig4(w io.Writer) {
	withH := env.Dataset.AFRByClass(core.Filter{})
	report.StackedBars(w, "Figure 4(a): AFR by class and failure type (including Disk H)", breakdownBars(withH), 56, "%")
	fmt.Fprintln(w)
	noH := env.Dataset.AFRByClass(core.Filter{ExcludeFamily: fleet.ProblemFamily})
	report.StackedBars(w, "Figure 4(b): AFR by class and failure type (excluding Disk H)", breakdownBars(noH), 56, "%")
	fmt.Fprintln(w)
	headers := []string{"Class", "Disk", "Interconnect", "Protocol", "Performance", "Total", "DiskYears"}
	var rows [][]string
	for _, b := range noH {
		rows = append(rows, []string{
			b.Label,
			report.Pct(b.AFR[failmodel.DiskFailure]),
			report.Pct(b.AFR[failmodel.PhysicalInterconnect]),
			report.Pct(b.AFR[failmodel.Protocol]),
			report.Pct(b.AFR[failmodel.Performance]),
			report.Pct(b.TotalAFR()),
			report.F(b.DiskYears, 0),
		})
	}
	report.Table(w, headers, rows)
}

// fig5Panels lists the paper's six Figure 5 panels.
var fig5Panels = []struct {
	Class fleet.SystemClass
	Shelf fleet.ShelfModel
	Tag   string
}{
	{fleet.NearLine, fleet.ShelfC, "(a) Near-line w/ Shelf Model C"},
	{fleet.LowEnd, fleet.ShelfA, "(b) Low-end w/ Shelf Model A"},
	{fleet.LowEnd, fleet.ShelfB, "(c) Low-end w/ Shelf Model B"},
	{fleet.MidRange, fleet.ShelfC, "(d) Mid-range w/ Shelf Model C"},
	{fleet.MidRange, fleet.ShelfB, "(e) Mid-range w/ Shelf Model B"},
	{fleet.HighEnd, fleet.ShelfB, "(f) High-end w/ Shelf Model B"},
}

// Fig5 renders AFR by disk model for each (class, shelf model) panel
// (paper Figure 5 a-f).
func (env *Env) Fig5(w io.Writer) {
	for _, panel := range fig5Panels {
		bs := env.Dataset.AFRByDiskModel(panel.Class, panel.Shelf, core.Filter{})
		if len(bs) == 0 {
			continue
		}
		report.StackedBars(w, "Figure 5"+panel.Tag, breakdownBars(bs), 50, "%")
		fmt.Fprintln(w)
	}
}

// Fig6 renders the shelf-model comparison for low-end systems per disk
// model, with confidence intervals and significance tests (paper
// Figure 6 a-d) — the comparison Finding 6 judges.
func (env *Env) Fig6(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: AFR by shelf enclosure model (low-end), same disk model")
	fmt.Fprintln(w, "Error bars: 99.5% CI on physical interconnect AFR; significance via rate test")
	fmt.Fprintln(w)
	for _, c := range env.Dataset.ShelfComparisons() {
		report.StackedBars(w, fmt.Sprintf("Disk %s", c.Model), breakdownBars([]core.Breakdown{c.A, c.B}), 50, "%")
		ciA := c.A.CI(failmodel.PhysicalInterconnect, 0.995)
		ciB := c.B.CI(failmodel.PhysicalInterconnect, 0.995)
		test := core.CompareAFR(c.A, c.B, failmodel.PhysicalInterconnect)
		fmt.Fprintf(w, "  interconnect AFR: shelf A %.2f±%.2f%% vs shelf B %.2f±%.2f%%  (p=%.3f, conf %.1f%%)\n\n",
			ciA.Center*100, ciA.HalfWidth()*100, ciB.Center*100, ciB.HalfWidth()*100, test.P, test.Confidence())
	}
}

// Fig7 renders the single-path vs dual-path comparison for mid-range and
// high-end systems (paper Figure 7 a/b) — the comparison Finding 7
// judges — alongside the multipath model's analytic prediction.
func (env *Env) Fig7(w io.Writer) {
	for _, c := range env.Dataset.PathComparisons() {
		if !c.Observed() {
			continue
		}
		report.StackedBars(w, fmt.Sprintf("Figure 7: %s by number of paths", c.Class), breakdownBars([]core.Breakdown{c.Single, c.Dual}), 50, "%")
		ciS := c.Single.CI(failmodel.PhysicalInterconnect, 0.999)
		ciD := c.Dual.CI(failmodel.PhysicalInterconnect, 0.999)
		test := core.CompareAFR(c.Single, c.Dual, failmodel.PhysicalInterconnect)
		totRed, piRed := c.Reductions()
		mix := env.Params.PICauseWeights[c.Class]
		fmt.Fprintf(w, "  interconnect AFR %.2f±%.2f%% -> %.2f±%.2f%%: -%.0f%% (conf %.1f%%); subsystem AFR -%.0f%%\n",
			ciS.Center*100, ciS.HalfWidth()*100, ciD.Center*100, ciD.HalfWidth()*100,
			piRed*100, test.Confidence(), totRed*100)
		fmt.Fprintf(w, "  multipath model: predicted interconnect reduction %.0f%% (path-recoverable cause share)\n",
			multipath.PredictedPIReduction(mix)*100)
		fmt.Fprintf(w, "  idealized two-network estimate: %.3f%% (the paper's 'far from ideal' comparison)\n\n",
			multipath.IdealizedDualPathAFR(c.Single.AFR[failmodel.PhysicalInterconnect])*100)
	}
}

// Fig9 renders the time-between-failure CDFs per shelf and per RAID
// group with candidate distribution fits (paper Figure 9 a/b).
func (env *Env) Fig9(w io.Writer) {
	for _, scope := range []core.Scope{core.ByShelf, core.ByRAIDGroup} {
		g := env.Dataset.Gaps(scope, core.Filter{})
		var series []report.Series
		order := []failmodel.FailureType{
			failmodel.PhysicalInterconnect, failmodel.Protocol,
			failmodel.Performance, failmodel.DiskFailure,
		}
		for _, t := range order {
			e := g.PerType[t]
			if e.Len() < 2 {
				continue
			}
			xs, ys := e.Points(72)
			series = append(series, report.Series{Label: t.Short(), X: xs, Y: ys})
		}
		if ov := g.Overall; ov.Len() >= 2 {
			xs, ys := ov.Points(72)
			series = append(series, report.Series{Label: "overall", X: xs, Y: ys})
		}
		report.CDFPlot(w, fmt.Sprintf("Figure 9: CDF of time between failures per %s", g.Scope), series, 72, 16)
		fmt.Fprintf(w, "  fraction of gaps < 10^4 s: overall %.0f%%", g.OverallFractionWithin(core.BurstThreshold)*100)
		for _, t := range failmodel.Types {
			fmt.Fprintf(w, ", %s %.0f%%", t.Short(), g.FractionWithin(t, core.BurstThreshold)*100)
		}
		fmt.Fprintln(w)
		if fits := g.DiskFits(); len(fits) > 0 {
			fmt.Fprint(w, "  disk failure gap fits (best first): ")
			for i, fr := range fits {
				if i > 0 {
					fmt.Fprint(w, "; ")
				}
				fmt.Fprintf(w, "%v AIC=%.0f KS=%.3f", fr.Dist, fr.AIC, fr.KS)
			}
			fmt.Fprintln(w)
			gof := g.GammaGOF(0)
			piGof := g.GammaGOFType(failmodel.PhysicalInterconnect, 0)
			fmt.Fprintf(w, "  chi-square GOF: Gamma on disk gaps p=%.3f (reject@0.05=%v); Gamma on interconnect gaps p=%.2g (reject=%v)\n",
				gof.P, gof.Reject(0.05), piGof.P, piGof.Reject(0.05))
		}
		fmt.Fprintln(w)
	}
}

// Fig10 renders the correlation analysis: empirical P(2) vs theoretical
// P(1)^2/2 per failure type, per shelf and per RAID group (paper
// Figure 10 a/b).
func (env *Env) Fig10(w io.Writer) {
	for _, scope := range []core.Scope{core.ByShelf, core.ByRAIDGroup} {
		results := env.Dataset.Correlation(scope, core.CorrelationOptions{})
		fmt.Fprintf(w, "Figure 10: empirical vs theoretical P(2) per %s (T = 1 year, %d containers)\n",
			scope, results[0].Containers)
		headers := []string{"Failure type", "P(1)", "Empirical P(2)", "99.5% CI", "Theoretical P(2)", "Ratio", "Dependent@99.5%"}
		var rows [][]string
		for _, r := range results {
			rows = append(rows, []string{
				r.Type.Short(),
				report.Pct(r.P1),
				report.Pct(r.P2),
				fmt.Sprintf("±%s", report.Pct(r.P2CI.HalfWidth())),
				report.Pct(r.TheoreticalP2),
				report.F(r.Ratio, 1) + "x",
				fmt.Sprint(r.Dependent(0.995)),
			})
		}
		report.Table(w, headers, rows)
		fmt.Fprintln(w)
	}
	// Window robustness (paper: "We have set T to 3 months, 6 months,
	// and 2 years ... similar correlations were observed").
	fmt.Fprintln(w, "Window robustness (shelf scope, interconnect ratio):")
	for _, months := range []int{3, 6, 12, 24} {
		opts := core.CorrelationOptions{Window: int64(months) * 30 * 24 * 3600}
		for _, r := range env.Dataset.Correlation(core.ByShelf, opts) {
			if r.Type == failmodel.PhysicalInterconnect {
				fmt.Fprintf(w, "  T=%2d months: ratio %.1fx (dependent=%v)\n", months, r.Ratio, r.Dependent(0.995))
			}
		}
	}
}

// Findings renders the paper's Findings 1-11 verdicts.
func (env *Env) Findings(w io.Writer) {
	pass := 0
	for _, fd := range env.Dataset.EvaluateFindings() {
		status := "FAIL"
		if fd.Pass {
			status = "PASS"
			pass++
		}
		fmt.Fprintf(w, "[%s] Finding %2d: %s\n        %s\n", status, fd.ID, fd.Title, fd.Detail)
	}
	fmt.Fprintf(w, "%d/11 findings reproduced at scale %.2f (see EXPERIMENTS.md for scale sensitivity)\n",
		pass, env.Config.Scale)
}

// Replacement renders the user-perspective vs system-perspective
// comparison: the disk replacement rate an administrator who swaps
// disks on any subsystem failure would observe, against the true disk
// AFR — the paper's Section 3 reconciliation of the 2-4x gap between
// field replacement studies and vendor AFRs.
func (env *Env) Replacement(w io.Writer) {
	fmt.Fprintln(w, "User-perspective replacement rate vs system-perspective disk AFR")
	fmt.Fprintf(w, "(vendor 1M-hour MTTF implies %.2f%% AFR)\n\n", core.VendorMTTFImpliedAFR(1e6)*100)
	headers := []string{"Class", "Disk AFR (system view)", "Replacement rate (user view)", "Ratio"}
	var rows [][]string
	for _, ra := range env.Dataset.ReplacementRates(core.Filter{}) {
		rows = append(rows, []string{
			ra.Label, report.Pct(ra.DiskAFR), report.Pct(ra.ReplacementRate),
			report.F(ra.Ratio, 1) + "x",
		})
	}
	gap := env.Dataset.PerspectiveGap()
	rows = append(rows, []string{"All FC classes", report.Pct(gap.DiskAFR), report.Pct(gap.ReplacementRate), report.F(gap.Ratio, 1) + "x"})
	report.Table(w, headers, rows)
	fmt.Fprintln(w, "\nAdministrators replacing disks on any subsystem failure observe the")
	fmt.Fprintln(w, "paper's 2-4x discrepancy with vendor AFRs; the disks themselves are fine.")
}

// SpanAblation rebuilds the fleet with RAID groups confined to a single
// shelf versus spanning three shelves and compares RAID-group burstiness
// (the design question behind Finding 9).
func (env *Env) SpanAblation(w io.Writer) {
	fmt.Fprintln(w, "Ablation: RAID group shelf spanning (Finding 9)")
	for _, span := range []int{1, 3} {
		profiles := fleet.DefaultProfiles()
		for i := range profiles {
			profiles[i].SpanShelves = span
		}
		f := fleet.Build(profiles, env.Config.Scale, env.Config.Seed)
		res := sim.Run(f, env.Params, env.Config.Seed+1)
		ds := core.NewDataset(f, res.Events)
		g := ds.Gaps(core.ByRAIDGroup, core.Filter{})
		spanned := 0.0
		for _, grp := range f.Groups {
			spanned += float64(grp.ShelvesSpanned)
		}
		fmt.Fprintf(w, "  span=%d shelves (avg %.1f): RAID-group gaps < 10^4 s: %.0f%% (n=%d gaps)\n",
			span, spanned/float64(len(f.Groups)),
			g.OverallFractionWithin(core.BurstThreshold)*100, g.Overall.Len())
	}
	fmt.Fprintln(w, "  (single-shelf groups inherit the full shelf burst; spanning dilutes it)")
}

// MTTDL compares the analytic independence-assuming MTTDL against
// replayed data-loss exposure under the simulator's correlated failure
// history and under an independence-preserving shuffle of the same
// events (the ablation behind the paper's Findings 8/10/11 implication).
func (env *Env) MTTDL(w io.Writer) {
	fmt.Fprintln(w, "Ablation: RAID data-loss exposure under correlated vs independent failures")
	const repairYears = 36.0 / 8760 // 36 hours of replacement + reconstruction
	diskOnly := func(e failmodel.Event) bool { return e.Type == failmodel.DiskFailure }

	// Analytic expectation for a representative group.
	afr := 0.008
	mttf := 1 / afr
	for _, rt := range []fleet.RAIDType{fleet.RAID4, fleet.RAID6} {
		fmt.Fprintf(w, "  analytic MTTDL (n=8, disk MTTF %.0fy, MTTR 36h, %s): %.2g group-years\n",
			mttf, rt, raid.AnalyticMTTDL(8, rt, mttf, repairYears))
	}

	observed := raid.Replay(env.Fleet, env.Events, repairYears, nil)
	independent := raid.IndependentBaseline(env.Fleet, env.Events, repairYears, nil, env.Config.Seed+7)
	observedDisk := raid.Replay(env.Fleet, env.Events, repairYears, diskOnly)
	independentDisk := raid.IndependentBaseline(env.Fleet, env.Events, repairYears, diskOnly, env.Config.Seed+8)

	headers := []string{"Event set", "Losses", "Double-degraded", "Group-years", "Loss rate /1e6 gy"}
	row := func(label string, r raid.ReplayResult) []string {
		return []string{label, fmt.Sprint(len(r.Losses)), fmt.Sprint(r.DoubleEvents),
			report.F(r.GroupYears, 0), report.F(r.LossRatePerGroupYear()*1e6, 1)}
	}
	report.Table(w, headers, [][]string{
		row("all subsystem failures (correlated)", observed),
		row("all subsystem failures (independent shuffle)", independent),
		row("disk failures only (correlated)", observedDisk),
		row("disk failures only (independent shuffle)", independentDisk),
	})
	if independent.LossRatePerGroupYear() > 0 {
		fmt.Fprintf(w, "  correlation multiplies loss exposure by %.1fx over the independence assumption\n",
			observed.LossRatePerGroupYear()/independent.LossRatePerGroupYear())
	}
}
