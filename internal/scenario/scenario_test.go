package scenario

import (
	"reflect"
	"testing"

	"storagesubsys/internal/paperref"
	"storagesubsys/internal/sweep"
)

func mustParse(t *testing.T, data string) *Spec {
	t.Helper()
	spec, err := Parse([]byte(data), "test.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestParseRoundTrip(t *testing.T) {
	spec := mustParse(t, `{
		"name": "rt",
		"description": "round trip",
		"trials": 6,
		"seed": 7,
		"scale": 0.1,
		"findings": true,
		"scenarios": [
			{"name": "baseline"},
			{"name": "lag", "repairLagMult": 8, "repairLagSigma": 1.0}
		],
		"assertions": [
			{"metric": "findings_pass", "expected": 11, "cite": "Findings 1-11"}
		]
	}`)
	want := &Spec{
		Name:        "rt",
		Description: "round trip",
		Trials:      6,
		Seed:        7,
		Scale:       0.1,
		Findings:    true,
		Scenarios: []sweep.Scenario{
			{Name: "baseline"},
			{Name: "lag", RepairLagMult: 8, RepairLagSigma: 1.0},
		},
		Assertions: []Assertion{
			{Metric: "findings_pass", Expected: 11, Cite: "Findings 1-11"},
		},
	}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("parsed spec diverged:\n got: %+v\nwant: %+v", spec, want)
	}
}

// TestDigestSemantic: the digest fingerprints the parsed spec, not the
// file bytes — reformatting and reordering keys leaves it unchanged,
// any semantic edit changes it.
func TestDigestSemantic(t *testing.T) {
	a := mustParse(t, `{"name": "d", "trials": 4, "scenarios": [{"name": "baseline"}]}`)
	b := mustParse(t, "{\n  \"scenarios\": [ {\"name\":\"baseline\"} ],\n  \"trials\": 4,\n  \"name\": \"d\"\n}")
	if a.Digest() != b.Digest() {
		t.Errorf("formatting changed the digest: %s vs %s", a.Digest(), b.Digest())
	}
	c := mustParse(t, `{"name": "d", "trials": 5, "scenarios": [{"name": "baseline"}]}`)
	if a.Digest() == c.Digest() {
		t.Error("a semantic edit (trials 4 -> 5) left the digest unchanged")
	}
	if len(a.Digest()) != 64 {
		t.Errorf("digest is not hex SHA-256: %q", a.Digest())
	}
}

// TestConfigPrecedence: Config overlays only the spec's non-zero run
// parameters onto the base config, installs the grid, and stamps the
// digest; operational fields (workers, checkpoints) stay the base's.
func TestConfigPrecedence(t *testing.T) {
	spec := mustParse(t, `{"name": "p", "trials": 9, "scale": 0.3,
		"scenarios": [{"name": "baseline"}]}`)
	base := sweep.Config{
		Trials: 20, Seed: 42, Scale: 0.25, Workers: 3, CheckpointPath: "x.ckpt",
	}
	cfg := spec.Config(base)
	if cfg.Trials != 9 || cfg.Scale != 0.3 {
		t.Errorf("spec run parameters not applied: trials %d scale %g", cfg.Trials, cfg.Scale)
	}
	if cfg.Seed != 42 {
		t.Errorf("zero spec seed must inherit the base seed 42, got %d", cfg.Seed)
	}
	if cfg.Workers != 3 || cfg.CheckpointPath != "x.ckpt" {
		t.Error("operational base fields must pass through untouched")
	}
	if !reflect.DeepEqual(cfg.Scenarios, spec.Scenarios) {
		t.Error("grid not installed")
	}
	if cfg.GridDigest != spec.Digest() {
		t.Error("GridDigest not stamped with the spec digest")
	}
}

func TestBaselineScenario(t *testing.T) {
	named := mustParse(t, `{"name": "b", "scenarios": [{"name": "other"}, {"name": "baseline"}]}`)
	if got := named.BaselineScenario(); got != "baseline" {
		t.Errorf("baseline by name: got %q", got)
	}
	first := mustParse(t, `{"name": "b", "scenarios": [{"name": "other"}, {"name": "more"}]}`)
	if got := first.BaselineScenario(); got != "other" {
		t.Errorf("baseline falls back to the first scenario: got %q", got)
	}
}

// TestAssertionTarget: an assertion's target is the tolerance-widened
// band in the inherited display unit, the pair expreport renders and
// judges it by.
func TestAssertionTarget(t *testing.T) {
	a := Assertion{
		Scenario: "baseline", Metric: "disk_share_nearline",
		Expected: 0.5, Tolerance: 0.5, Cite: "Finding 1", Note: "n",
	}
	if band := a.Band(); band.Lo != 0.25 || band.Hi != 0.75 {
		t.Errorf("band: got [%g, %g], want [0.25, 0.75]", band.Lo, band.Hi)
	}
	// disk_share_nearline is a fraction in the paperref registry; the
	// assertion inherits that without an explicit unit.
	if u := a.DisplayUnit(); u != paperref.Fraction {
		t.Errorf("unit: got %v, want Fraction (inherited from paperref)", u)
	}

	// An explicit unit wins over the registry.
	a.Unit = "count"
	if a.DisplayUnit() != paperref.Count {
		t.Error("explicit unit must override the paperref convention")
	}

	// A metric paperref has no band for defaults to Count.
	b := Assertion{Metric: "mined_dropped", Expected: 3, Cite: "c"}
	if b.DisplayUnit() != paperref.Count {
		t.Error("unknown-to-paperref metric must default to Count")
	}
}
