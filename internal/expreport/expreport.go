// Package expreport renders EXPERIMENTS.md: the paper-vs-spread
// report that confronts the paper's published numbers
// (internal/paperref) with the reproduction's Monte-Carlo uncertainty
// (internal/sweep). For every paper finding it shows, per numeric
// target, the paper's value with its citation, the reproduction's
// single-seed point estimate, the trial mean with its 95% confidence
// interval, the spread quantiles, and a verdict: does the published
// value fall inside what the reproduction's randomness allows?
//
// The rendering is a pure function of the sweep result, which is
// itself byte-deterministic for any worker count, so the committed
// EXPERIMENTS.md can be regenerated and diffed by CI
// (cmd/expreport; the expreport-smoke job runs
// `git diff --exit-code`).
package expreport

import (
	"fmt"
	"io"
	"math"
	"strings"

	"storagesubsys/internal/paperref"
	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

// CanonicalConfig is the sweep configuration behind the committed
// EXPERIMENTS.md: the ops grid (baseline plus the four operational
// dimensions — install-window skew, churn, repair lag, shelf-size mix)
// at 10% population scale, 24 trials per scenario, the canonical seed.
// cmd/expreport runs it by default; CI regenerates the report from it
// and fails if the committed file is out of date.
func CanonicalConfig() sweep.Config {
	ops, err := scenario.Builtin("ops")
	if err != nil {
		// The grid is embedded at build time and every built-in is
		// parsed by internal/scenario's tests.
		panic("expreport: " + err.Error())
	}
	return sweep.Config{
		Trials:    24,
		Seed:      42,
		Scale:     0.10,
		Deltas:    true,
		Scenarios: ops.Scenarios,
	}
}

// Verdict classifies one target's confrontation.
type Verdict int

// Verdicts, from strongest agreement to weakest.
const (
	// WithinCI: the paper's band overlaps the 95% confidence interval
	// of the reproduction's trial mean.
	WithinCI Verdict = iota
	// InSpread: the band misses the CI but overlaps the observed
	// min–max trial spread.
	InSpread
	// Outside: the band misses every observed trial value.
	Outside
	// NoData: the metric was undefined in every trial (e.g. too little
	// exposure at the sweep's scale).
	NoData
)

func (v Verdict) String() string {
	switch v {
	case WithinCI:
		return "within CI"
	case InSpread:
		return "in spread"
	case Outside:
		return "OUTSIDE"
	default:
		return "no data"
	}
}

// TargetResult is one target joined against one scenario's sweep
// summary.
type TargetResult struct {
	Target paperref.Target
	// Band is the paper band after fleet-scale adjustment (absolute
	// tallies published for the full population are multiplied by the
	// scenario's effective scale).
	Band    paperref.Band
	Metric  sweep.MetricSummary
	Verdict Verdict
}

// FindingResult is one paper finding joined against a scenario.
type FindingResult struct {
	Finding paperref.Finding
	Targets []TargetResult
}

// Confront joins every paperref finding against one scenario's
// summary. scale is the scenario's effective population scale, used to
// adjust full-population tallies.
func Confront(ss sweep.ScenarioSummary, scale float64) []FindingResult {
	byName := make(map[string]sweep.MetricSummary, len(ss.Metrics))
	for _, m := range ss.Metrics {
		byName[m.Name] = m
	}
	out := make([]FindingResult, 0, len(paperref.Findings))
	for _, f := range paperref.Findings {
		fr := FindingResult{Finding: f}
		for _, tg := range f.Targets {
			band := tg.Band
			if tg.ScalesWithFleet {
				band.Lo *= scale
				band.Hi *= scale
			}
			m := byName[tg.Metric]
			fr.Targets = append(fr.Targets, TargetResult{
				Target:  tg,
				Band:    band,
				Metric:  m,
				Verdict: verdict(band, m),
			})
		}
		out = append(out, fr)
	}
	return out
}

// verdict classifies one metric summary against a (scale-adjusted)
// paper band.
func verdict(band paperref.Band, m sweep.MetricSummary) Verdict {
	if m.N == 0 {
		return NoData
	}
	if band.Intersects(float64(m.CILo), float64(m.CIHi)) {
		return WithinCI
	}
	if band.Intersects(float64(m.Min), float64(m.Max)) {
		return InSpread
	}
	return Outside
}

// AssertionResult is one user-authored scenario-file assertion joined
// against the sweep result — the same shape as TargetResult, plus the
// scenario the band was resolved against.
type AssertionResult struct {
	Assertion scenario.Assertion
	// Scenario is the resolved scenario name (the spec's baseline when
	// the assertion names none).
	Scenario string
	// Band is the assertion band after fleet-scale adjustment.
	Band paperref.Band
	// Metric is the joined summary; zero (N == 0, verdict "no data")
	// when the result carries no scenario of that name — possible when
	// a spec's assertions are joined against a foreign -in result.
	Metric  sweep.MetricSummary
	Verdict Verdict
}

// ConfrontAssertions joins every assertion in the spec against the
// sweep result, through exactly the verdict rule the paper bands use.
// Assertions resolve to their named scenario (the spec's baseline when
// unnamed); bands marked ScalesWithFleet are multiplied by that
// scenario's effective population scale first.
func ConfrontAssertions(res *sweep.Result, spec *scenario.Spec) []AssertionResult {
	type summary struct {
		byName map[string]sweep.MetricSummary
		scale  float64
	}
	byScen := make(map[string]summary, len(res.Scenarios))
	for _, ss := range res.Scenarios {
		m := make(map[string]sweep.MetricSummary, len(ss.Metrics))
		for _, ms := range ss.Metrics {
			m[ms.Name] = ms
		}
		byScen[ss.Scenario.Name] = summary{byName: m, scale: ss.Scenario.EffScale(res.Scale)}
	}
	out := make([]AssertionResult, 0, len(spec.Assertions))
	for _, a := range spec.Assertions {
		name := a.Scenario
		if name == "" {
			name = spec.BaselineScenario()
		}
		ar := AssertionResult{Assertion: a, Scenario: name, Band: a.Band(), Verdict: NoData}
		if ss, ok := byScen[name]; ok {
			if a.ScalesWithFleet {
				ar.Band.Lo *= ss.scale
				ar.Band.Hi *= ss.scale
			}
			ar.Metric = ss.byName[a.Metric]
			ar.Verdict = verdict(ar.Band, ar.Metric)
		}
		out = append(out, ar)
	}
	return out
}

// sensitivityMetrics are the headline statistics the scenario
// sensitivity table tracks across the grid.
var sensitivityMetrics = []string{
	"events_visible",
	"afr_total_lowend",
	"disk_share_lowend",
	"pi_share_lowend",
	"burst_shelf_overall",
	"burst_rg_overall",
	"corr_disk_shelf",
	"corr_pi_shelf",
	"multipath_pi_reduction",
}

// RenderSpec writes the full EXPERIMENTS.md markdown for a sweep
// result. The per-finding confrontation uses the grid's baseline
// scenario (sweep.BaselineIndex: the scenario named "baseline", else
// the first); every scenario appears in the sensitivity section.
// When spec is non-nil and carries assertions, a "Scenario-file
// assertions" section confronts every user-authored band with the sweep
// result through the same verdict rule as the paper bands; a nil spec
// (or one without assertions) adds nothing. The output is a pure
// function of res and spec.
func RenderSpec(w io.Writer, res *sweep.Result, spec *scenario.Spec) error {
	if len(res.Scenarios) == 0 {
		return fmt.Errorf("expreport: sweep result has no scenarios")
	}
	scens := make([]sweep.Scenario, len(res.Scenarios))
	for i, ss := range res.Scenarios {
		scens[i] = ss.Scenario
	}
	base := &res.Scenarios[sweep.BaselineIndex(scens)]
	scale := base.Scenario.EffScale(res.Scale)
	findings := Confront(*base, scale)

	var b strings.Builder
	b.WriteString("# EXPERIMENTS — paper values vs reproduction spread\n\n")
	if res.Partial {
		// Budget- or deadline-stopped sweeps carry truncated CIs; say so
		// before any number is read. Complete results render byte-
		// identically to before this block existed.
		b.WriteString("> **PARTIAL SWEEP** — the underlying sweep stopped before completing every\n")
		b.WriteString("> trial; confidence intervals below cover only the completed trials per\n")
		b.WriteString("> scenario:\n>\n")
		for _, ss := range res.Scenarios {
			fmt.Fprintf(&b, "> - %s: %d/%d trials\n", ss.Scenario.Name, ss.TrialsDone, res.Trials)
		}
		b.WriteString(">\n> Resume the sweep (`cmd/sweep -resume`) and regenerate for final numbers.\n\n")
	}
	fmt.Fprintf(&b, "Generated by `cmd/expreport` (regenerate with `go run ./cmd/expreport -o EXPERIMENTS.md`;\nCI's expreport-smoke job fails when this file is out of date). Do not edit by hand.\n\n")
	fmt.Fprintf(&b, "Each section below confronts one finding of the FAST '08 paper with the\nMonte-Carlo reproduction: the paper's published value ([internal/paperref](internal/paperref)),\nthe single-seed point estimate (trial 0 — exactly what `cmd/reproduce` computes),\nthe trial mean with its 95%% Student-t confidence interval, the spread quantiles,\nand a verdict: **within CI** when the paper band overlaps the mean's 95%% CI,\n*in spread* when it only overlaps the observed min–max trial range, **OUTSIDE**\nwhen no trial reached it, and *no data* when the metric was undefined at this\nscale. Rates are per disk-year; at %g%% population scale the per-rate statistics\nare scale-invariant up to sampling noise, and absolute tallies are compared\nafter scaling the paper's full-population numbers.\n\n", res.Scale*100)

	b.WriteString("## Sweep configuration\n\n")
	fmt.Fprintf(&b, "- %d trials per scenario, seed %d, base scale %.2f (engine: [internal/sweep](internal/sweep))\n", res.Trials, res.Seed, res.Scale)
	fmt.Fprintf(&b, "- byte-deterministic for any `-workers` count; trial 0 replays the canonical `cmd/reproduce` seeds\n")
	b.WriteString("- scenario grid:\n\n")
	b.WriteString("| Scenario | Overrides |\n| --- | --- |\n")
	for _, ss := range res.Scenarios {
		desc := ss.Scenario.Describe(res.Scale)
		desc = strings.TrimPrefix(desc, ss.Scenario.Name+" (")
		desc = strings.TrimSuffix(desc, ")")
		fmt.Fprintf(&b, "| %s | %s |\n", ss.Scenario.Name, desc)
	}
	b.WriteString("\n")

	within, inSpread, outside, noData := 0, 0, 0, 0
	for _, fr := range findings {
		for _, tr := range fr.Targets {
			switch tr.Verdict {
			case WithinCI:
				within++
			case InSpread:
				inSpread++
			case Outside:
				outside++
			default:
				noData++
			}
		}
	}
	b.WriteString("## Verdict summary\n\n")
	fmt.Fprintf(&b, "Baseline scenario `%s`: of %d paper targets, **%d within the 95%% CI**, %d in the\ntrial spread only, %d outside every trial, %d with no data at this scale.\n\n",
		base.Scenario.Name, within+inSpread+outside+noData, within, inSpread, outside, noData)

	for _, fr := range findings {
		f := fr.Finding
		if f.ID == 0 {
			fmt.Fprintf(&b, "## Population context — %s\n\n", f.Title)
		} else {
			fmt.Fprintf(&b, "## Finding %d — %s\n\n", f.ID, f.Title)
		}
		fmt.Fprintf(&b, "> %s\n>\n> — *%s*\n\n", f.Claim, f.Section)
		b.WriteString("| Metric | Paper | Source | Point | Mean | 95% CI | P5 / P50 / P95 | Verdict |\n")
		b.WriteString("| --- | --- | --- | --- | --- | --- | --- | --- |\n")
		for _, tr := range fr.Targets {
			u := tr.Target.Unit
			m := tr.Metric
			verdictCell := tr.Verdict.String()
			switch tr.Verdict {
			case WithinCI:
				verdictCell = "**within CI**"
			case Outside:
				verdictCell = "**OUTSIDE**"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | [%s, %s] | %s / %s / %s | %s |\n",
				tr.Target.Metric,
				tr.Band.Format(u),
				tr.Target.Source,
				u.Format(float64(m.Point)),
				u.Format(float64(m.Mean)),
				u.Format(float64(m.CILo)), u.Format(float64(m.CIHi)),
				u.Format(float64(m.P5)), u.Format(float64(m.P50)), u.Format(float64(m.P95)),
				verdictCell)
		}
		notes := make([]string, 0, len(fr.Targets))
		for _, tr := range fr.Targets {
			if tr.Target.Note != "" {
				notes = append(notes, fmt.Sprintf("`%s`: %s", tr.Target.Metric, tr.Target.Note))
			}
		}
		if len(notes) > 0 {
			fmt.Fprintf(&b, "\n*Notes: %s.*\n", strings.Join(notes, "; "))
		}
		b.WriteString("\n")
	}

	if len(res.Scenarios) > 1 {
		b.WriteString("## Per-scenario paper verdicts\n\n")
		b.WriteString("The sections above judge the baseline scenario; this matrix judges **every**\ngrid scenario against the full paper-band registry, each at its own effective\npopulation scale. A paper value that stays within CI across a row's\noperational stresses is robust to fleet operations; a cell that flips to\nOUTSIDE names the scenario that breaks it.\n\n")
		perScen := make([][]FindingResult, len(res.Scenarios))
		for i, ss := range res.Scenarios {
			perScen[i] = Confront(ss, ss.Scenario.EffScale(res.Scale))
		}
		b.WriteString("| Scenario | Within CI | In spread | Outside | No data |\n")
		b.WriteString("| --- | --- | --- | --- | --- |\n")
		for i, ss := range res.Scenarios {
			cw, ci, co, cn := 0, 0, 0, 0
			for _, fr := range perScen[i] {
				for _, tr := range fr.Targets {
					switch tr.Verdict {
					case WithinCI:
						cw++
					case InSpread:
						ci++
					case Outside:
						co++
					default:
						cn++
					}
				}
			}
			fmt.Fprintf(&b, "| %s | %d | %d | %d | %d |\n", ss.Scenario.Name, cw, ci, co, cn)
		}
		b.WriteString("\n")
		b.WriteString("| Finding | Metric |")
		for _, ss := range res.Scenarios {
			fmt.Fprintf(&b, " %s |", ss.Scenario.Name)
		}
		b.WriteString("\n| --- | --- |")
		for range res.Scenarios {
			b.WriteString(" --- |")
		}
		b.WriteString("\n")
		for fi, fr := range perScen[0] {
			label := "ctx"
			if fr.Finding.ID != 0 {
				label = fmt.Sprintf("%d", fr.Finding.ID)
			}
			for ti := range fr.Targets {
				fmt.Fprintf(&b, "| %s | `%s` |", label, fr.Targets[ti].Target.Metric)
				for si := range perScen {
					cell := perScen[si][fi].Targets[ti].Verdict.String()
					if perScen[si][fi].Targets[ti].Verdict == Outside {
						cell = "**OUTSIDE**"
					}
					fmt.Fprintf(&b, " %s |", cell)
				}
				b.WriteString("\n")
			}
		}
		b.WriteString("\n")
	}

	if len(res.Deltas) > 0 {
		b.WriteString("## Paired deltas — CRN contrasts against the baseline\n\n")
		b.WriteString("Each non-baseline scenario is contrasted with the baseline on **common\nrandom numbers**: trial k of both scenarios replays the identical RNG\nstream tree, so the per-trial difference cancels the shared Monte-Carlo\nnoise and the paired 95% CI below is far tighter than differencing the\ntwo independent CIs above. `Corr` is the correlation between the two\nlegs (near +1 means the coupling cancelled most of the noise); `Sig`\nmarks contrasts whose CI excludes zero — operational effects the sweep\nresolves above its noise floor. Headline metrics only; every metric's\ncontrast is in the sweep JSON (`go run ./cmd/sweep -grid ops -deltas -json`).\n\n")
		for _, sd := range res.Deltas {
			fmt.Fprintf(&b, "### %s − %s\n\n", sd.Scenario, sd.Baseline)
			byName := make(map[string]sweep.DeltaSummary, len(sd.Metrics))
			for _, d := range sd.Metrics {
				byName[d.Name] = d
			}
			b.WriteString("| Metric | Δ mean | 95% CI | Corr | Sig |\n")
			b.WriteString("| --- | --- | --- | --- | --- |\n")
			for _, name := range sensitivityMetrics {
				d, ok := byName[name+"_delta"]
				if !ok || d.N == 0 {
					fmt.Fprintf(&b, "| `%s` | — | — | — | |\n", name+"_delta")
					continue
				}
				sig := ""
				if float64(d.CILo) > 0 || float64(d.CIHi) < 0 {
					sig = "*"
				}
				corr := "—"
				if !math.IsNaN(float64(d.Corr)) {
					corr = fmt.Sprintf("%.3f", float64(d.Corr))
				}
				fmt.Fprintf(&b, "| `%s` | %+.4g | [%+.4g, %+.4g] | %s | %s |\n",
					d.Name, float64(d.Mean), float64(d.CILo), float64(d.CIHi), corr, sig)
			}
			b.WriteString("\n")
		}
	}

	if spec != nil && len(spec.Assertions) > 0 {
		fmt.Fprintf(&b, "## Scenario-file assertions — `%s`\n\n", spec.Name)
		b.WriteString("User-authored expectation bands from the scenario file (format:\n[SCENARIOS.md](SCENARIOS.md)), joined against the sweep with the same verdict\nrule as the paper bands above. Each band is the file's expected value widened\nby its relative tolerance; bands marked as fleet-scaled are multiplied by the\nscenario's effective population scale first.\n\n")
		ars := ConfrontAssertions(res, spec)
		aWithin := 0
		for _, ar := range ars {
			if ar.Verdict == WithinCI {
				aWithin++
			}
		}
		fmt.Fprintf(&b, "**%d of %d assertions within the 95%% CI.**\n\n", aWithin, len(ars))
		b.WriteString("| Scenario | Metric | Expected | Cite | Point | Mean | 95% CI | Verdict |\n")
		b.WriteString("| --- | --- | --- | --- | --- | --- | --- | --- |\n")
		for _, ar := range ars {
			u := ar.Assertion.DisplayUnit()
			m := ar.Metric
			verdictCell := ar.Verdict.String()
			switch ar.Verdict {
			case WithinCI:
				verdictCell = "**within CI**"
			case Outside:
				verdictCell = "**OUTSIDE**"
			}
			fmt.Fprintf(&b, "| %s | `%s` | %s | %s | %s | %s | [%s, %s] | %s |\n",
				ar.Scenario,
				ar.Assertion.Metric,
				ar.Band.Format(u),
				ar.Assertion.Cite,
				u.Format(float64(m.Point)),
				u.Format(float64(m.Mean)),
				u.Format(float64(m.CILo)), u.Format(float64(m.CIHi)),
				verdictCell)
		}
		notes := make([]string, 0, len(ars))
		for _, ar := range ars {
			if ar.Assertion.Note != "" {
				notes = append(notes, fmt.Sprintf("`%s`: %s", ar.Assertion.Metric, ar.Assertion.Note))
			}
		}
		if len(notes) > 0 {
			fmt.Fprintf(&b, "\n*Notes: %s.*\n", strings.Join(notes, "; "))
		}
		b.WriteString("\n")
	}

	b.WriteString("## Scenario sensitivity — the operational dimensions\n\n")
	b.WriteString("Trial means of headline statistics across the grid. The non-baseline\nscenarios stress the operational dimensions field studies single out:\ndeployment-age skew (young/old cohorts), proactive churn waves, repair-lag\ndiscipline (the RAID vulnerability window), and heterogeneous shelf\noccupancy. Per-rate statistics that hold across these rows are robust to\noperational variation; rows that move show which findings depend on fleet\noperations rather than component physics.\n\n")
	b.WriteString("| Metric |")
	for _, ss := range res.Scenarios {
		fmt.Fprintf(&b, " %s |", ss.Scenario.Name)
	}
	b.WriteString("\n| --- |")
	for range res.Scenarios {
		b.WriteString(" --- |")
	}
	b.WriteString("\n")
	for _, name := range sensitivityMetrics {
		fmt.Fprintf(&b, "| `%s` |", name)
		for _, ss := range res.Scenarios {
			var cell string
			found := false
			for _, m := range ss.Metrics {
				if m.Name != name {
					continue
				}
				found = true
				if m.N == 0 || math.IsNaN(float64(m.Mean)) {
					cell = "—"
				} else {
					cell = fmt.Sprintf("%.4g", float64(m.Mean))
				}
				break
			}
			if !found {
				cell = "—"
			}
			fmt.Fprintf(&b, " %s |", cell)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	b.WriteString("The underlying per-scenario confidence intervals and quantiles for every\nmetric are available from `go run ./cmd/sweep -grid ops -json`, and the\nmetric definitions (with their paper mappings) are documented in\n[internal/sweep/metrics.go](internal/sweep/metrics.go).\n")

	_, err := io.WriteString(w, b.String())
	return err
}
