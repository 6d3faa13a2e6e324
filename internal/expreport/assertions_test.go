package expreport

import (
	"bytes"
	"strings"
	"testing"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

func specWith(t *testing.T, assertions []scenario.Assertion) *scenario.Spec {
	t.Helper()
	spec := &scenario.Spec{
		Name: "test-spec",
		Scenarios: []sweep.Scenario{
			{Name: "baseline"},
			{Name: "scaled", Scale: 0.5},
		},
		Assertions: assertions,
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("test spec invalid: %v", err)
	}
	return spec
}

// TestConfrontAssertions covers the join rules on a handcrafted result:
// named-scenario resolution, baseline fallback, fleet-scale band
// adjustment, and the no-data path for scenarios the result lacks.
func TestConfrontAssertions(t *testing.T) {
	res := &sweep.Result{
		Trials: 3, Scale: 0.10,
		Scenarios: []sweep.ScenarioSummary{
			{
				Scenario: sweep.Scenario{Name: "baseline"},
				Metrics: []sweep.MetricSummary{{
					Name: "disk_share_lowend", N: 3,
					CILo: 0.40, CIHi: 0.50, Min: 0.38, Max: 0.52,
				}},
			},
			{
				Scenario: sweep.Scenario{Name: "scaled", Scale: 0.5},
				Metrics: []sweep.MetricSummary{{
					Name: "events_visible", N: 3,
					CILo: 90, CIHi: 110, Min: 85, Max: 115,
				}},
			},
		},
	}
	spec := specWith(t, []scenario.Assertion{
		// Unnamed scenario resolves to the baseline; band straddles the CI.
		{Metric: "disk_share_lowend", Expected: 0.45, Tolerance: 0.1, Cite: "c"},
		// Fleet-scaled tally on the half-scale scenario: 200 full-fleet
		// events x EffScale 0.5 = a [90, 110]-ish band around the CI.
		{Scenario: "scaled", Metric: "events_visible", Expected: 200, Tolerance: 0.05,
			Cite: "c", ScalesWithFleet: true},
		// A scenario the result does not carry: no data, zero summary.
		{Scenario: "baseline", Metric: "burst_rg_overall", Expected: 0.3, Cite: "c"},
	})

	ars := ConfrontAssertions(res, spec)
	if len(ars) != 3 {
		t.Fatalf("got %d assertion results, want 3", len(ars))
	}

	if ars[0].Scenario != "baseline" {
		t.Errorf("unnamed assertion resolved to %q, want baseline", ars[0].Scenario)
	}
	if ars[0].Verdict != WithinCI {
		t.Errorf("baseline join verdict = %v, want WithinCI", ars[0].Verdict)
	}

	// ScalesWithFleet: band multiplied by the scenario's EffScale (0.5),
	// not the base scale: [190, 210] -> [95, 105], inside the CI.
	if ars[1].Band.Lo != 95 || ars[1].Band.Hi != 105 {
		t.Errorf("fleet-scaled band = [%g, %g], want [95, 105]", ars[1].Band.Lo, ars[1].Band.Hi)
	}
	if ars[1].Verdict != WithinCI {
		t.Errorf("fleet-scaled verdict = %v, want WithinCI", ars[1].Verdict)
	}

	// burst_rg_overall is not in the handcrafted baseline summary.
	if ars[2].Verdict != NoData || ars[2].Metric.N != 0 {
		t.Errorf("missing metric must join as no data, got %v (N=%d)", ars[2].Verdict, ars[2].Metric.N)
	}
}

// TestConfrontAssertionsForeignResult: joining a spec against a result
// that holds none of its scenarios (the -in cross-join case) yields
// all-NoData, never a panic or a false verdict.
func TestConfrontAssertionsForeignResult(t *testing.T) {
	res := &sweep.Result{
		Trials: 1, Scale: 0.10,
		Scenarios: []sweep.ScenarioSummary{{Scenario: sweep.Scenario{Name: "other"}}},
	}
	spec := specWith(t, []scenario.Assertion{
		{Scenario: "baseline", Metric: "events_visible", Expected: 10, Cite: "c"},
	})
	ars := ConfrontAssertions(res, spec)
	if len(ars) != 1 || ars[0].Verdict != NoData {
		t.Fatalf("foreign join: %+v, want one NoData result", ars)
	}
}

// TestRenderSpecBackwardCompatible: a spec with no assertions must
// render byte-identically to a nil spec (which the golden report pins),
// so the committed EXPERIMENTS.md is unaffected by the scenario join
// machinery.
func TestRenderSpecBackwardCompatible(t *testing.T) {
	res := execute(t, sweep.Config{Trials: 1, Seed: 42, Scale: 0.02, Workers: 2,
		Scenarios: []sweep.Scenario{{Name: "baseline"}}})
	var nilSpec, emptySpec bytes.Buffer
	if err := RenderSpec(&nilSpec, res, nil); err != nil {
		t.Fatal(err)
	}
	if err := RenderSpec(&emptySpec, res, &scenario.Spec{
		Name: "no-assertions", Scenarios: []sweep.Scenario{{Name: "baseline"}},
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nilSpec.Bytes(), emptySpec.Bytes()) {
		t.Error("RenderSpec with an assertion-less spec diverged from the nil spec")
	}
}

// TestRenderSpecAssertionSection: with assertions present, the report
// gains the scenario-file section with the pass count and one verdict
// row per assertion.
func TestRenderSpecAssertionSection(t *testing.T) {
	res := execute(t, sweep.Config{Trials: 2, Seed: 42, Scale: 0.02, Workers: 2,
		Scenarios: []sweep.Scenario{{Name: "baseline"}}})
	spec := &scenario.Spec{
		Name:      "sectioned",
		Scenarios: []sweep.Scenario{{Name: "baseline"}},
		Assertions: []scenario.Assertion{
			// A band no fraction can leave: always within CI.
			{Metric: "disk_share_lowend", Expected: 0.5, Tolerance: 1, Cite: "wide", Note: "anchor"},
			// An impossible band: always outside.
			{Metric: "disk_share_lowend", Expected: 123, Tolerance: 0, Cite: "narrow"},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderSpec(&buf, res, spec); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## Scenario-file assertions — `sectioned`",
		"**1 of 2 assertions within the 95% CI.**",
		"**within CI**",
		"**OUTSIDE**",
		"*Notes: `disk_share_lowend`: anchor.*",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("assertion section lacks %q", want)
		}
	}
	// The section must precede the sensitivity table, matching the
	// paper-band sections it extends.
	if strings.Index(out, "Scenario-file assertions") > strings.Index(out, "## Scenario sensitivity") {
		t.Error("assertion section rendered after the sensitivity section")
	}
}
