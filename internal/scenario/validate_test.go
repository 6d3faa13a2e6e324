package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidationErrors pins the exact one-line error for every
// malformed fixture under testdata/invalid — one fixture per
// validation rule. The `want` strings are the error text after the
// "scenario: <path>: " prefix Load adds; drift in any message is a
// contract change and must update SCENARIOS.md too.
func TestValidationErrors(t *testing.T) {
	cases := []struct {
		file string
		want string
	}{
		{"missing-name.json", `missing "name" (a scenario file labels its grid like the built-in grid names)`},
		{"bad-trials.json", `"trials" is -3, must be >= 1 (or omitted to inherit the -trials flag)`},
		{"bad-scale.json", `"scale" is 2, must be in (0, 1.5] (or omitted to inherit the -scale flag)`},
		{"empty-scenarios.json", `"scenarios" is empty: a grid needs at least one scenario`},
		{"scenario-missing-name.json", `scenarios[1]: missing "name"`},
		{"duplicate-scenario.json", `scenarios[1] "baseline": duplicate scenario name (first defined at scenarios[0])`},
		{"bad-knob-scale.json", `scenarios[0] "big": "scale" is 3, must be in (0, 1.5] (0 inherits the base scale)`},
		{"bad-knob-span.json", `scenarios[0] "wide": "spanShelves" is 9, must be in [0, 8] (0 inherits the class profile's span)`},
		{"bad-knob-mult.json", `scenarios[0] "neg": "diskAFRMult" is -1, must be a finite multiplier >= 0 (0 inherits the default rate)`},
		{"bad-knob-singleton.json", `scenarios[0] "p": "piSingletonProb" is 1.5, must be in [0, 1] (0 inherits the default burst law)`},
		{"bad-knob-skew.json", `scenarios[0] "old": "installSkew" is -2, must be in [-1, 1] (negative ages the fleet, positive youngens it)`},
		{"bad-knob-sigma.json", `scenarios[0] "lag": "repairLagSigma" is 5, must be in [0, 4] (log-space sigma; 0 keeps repairs deterministic)`},
		{"bad-knob-sparse.json", `scenarios[0] "sparse": "sparseShelfFrac" is 1.5, must be in [0, 1] (0 keeps shelves uniformly populated)`},
		{"bad-variance-mode.json", `unknown field "variance" (every spec field is documented in SCENARIOS.md)`},
		{"antithetic-odd-trials.json", `unknown field "variance" (every spec field is documented in SCENARIOS.md)`},
		{"bad-knob-variance.json", `scenarios[0] "v": "variance" is "mirror", but the antithetic and stratified modes were removed (neither cut a sweep metric's variance by 1.5×); only "none" remains, so drop the key`},
		{"scenario-antithetic-odd-trials.json", `scenarios[0] "v": "variance" is "antithetic", but the antithetic and stratified modes were removed (neither cut a sweep metric's variance by 1.5×); only "none" remains, so drop the key`},
		{"assertion-missing-metric.json", `assertions[0]: missing "metric"`},
		{"assertion-unknown-metric.json", `assertions[0]: unknown metric "bogus" (the registry lives in internal/sweep/metrics.go and SCENARIOS.md)`},
		{"assertion-unknown-scenario.json", `assertions[0]: scenario "nope" is not defined in this spec`},
		{"assertion-bad-expected.json", `assertions[0]: "expected" is -1, must be finite and >= 0 (metric values are non-negative; fractions are in [0, 1], not percent)`},
		{"assertion-bad-tolerance.json", `assertions[0]: "tolerance" is 2, must be in [0, 1] (the relative half-width of the accepted band)`},
		{"assertion-bad-unit.json", `assertions[0]: unknown unit "percent" (valid: fraction, ratio, count; omit to inherit the paperref convention)`},
		{"assertion-missing-cite.json", `assertions[0]: missing "cite" (name the paper figure, measurement, or ticket the expected value comes from)`},
		{"assertion-findings-gated.json", `assertions[0]: metric "findings_pass" is only defined with top-level "findings": true`},
		{"assertion-mine-gated.json", `assertions[0]: metric "mined_dropped" is only defined for scenarios with "mine": true (scenario "baseline" does not mine)`},
		{"unknown-field.json", `unknown field "trails" (every spec field is documented in SCENARIOS.md)`},
		{"syntax-error.json", `2:38: invalid character ']' looking for beginning of value`},
		{"type-error.json", `2:18: field "trials" holds a JSON string, want int`},
		{"trailing-data.json", `trailing data after the scenario object (one spec per file)`},
	}

	// Every fixture must be covered — a new rule needs a new fixture AND
	// a new pinned line here.
	covered := make(map[string]bool, len(cases))
	for _, c := range cases {
		covered[c.file] = true
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "invalid"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !covered[e.Name()] {
			t.Errorf("fixture %s has no pinned error line in this test", e.Name())
		}
	}

	for _, c := range cases {
		t.Run(strings.TrimSuffix(c.file, ".json"), func(t *testing.T) {
			path := filepath.Join("testdata", "invalid", c.file)
			_, err := Load(path)
			if err == nil {
				t.Fatalf("Load(%s) accepted a malformed spec", c.file)
			}
			want := "scenario: " + path + ": " + c.want
			if err.Error() != want {
				t.Errorf("Load(%s):\n got: %s\nwant: %s", c.file, err, want)
			}
			if strings.ContainsRune(err.Error(), '\n') {
				t.Errorf("Load(%s): error is not one line: %q", c.file, err)
			}
		})
	}
}
