// Package scenario defines the declarative scenario artifact: a JSON
// file describing a sweep grid — run parameters, the scenario list with
// every override internal/sweep understands, and optional user-authored
// assertion bands — that cmd/sweep (-grid, -grid-file, validate),
// cmd/expreport, sweepd and CI all consume. The built-in grids are the
// committed files under examples/scenarios/, embedded in the binary and
// resolved by name through Builtin.
//
// The format is strict by construction: encoding/json with
// DisallowUnknownFields (a typoed override key would otherwise silently
// degrade a scenario to a baseline duplicate — the worst failure mode
// for a comparison tool), followed by semantic validation with
// positional, one-line, actionable errors (Validate). SCENARIOS.md is
// the full format reference; a reflection-driven staleness test fails
// if a spec field goes undocumented.
//
// Determinism: the spec only produces sweep.Config values; it adds no
// randomness and no ordering of its own, so equal scenario lists sweep
// to equal bytes. Digest fingerprints the parsed spec so the sweep
// checkpoint machinery can refuse to resume under a different scenario
// file (see sweep.Config.GridDigest and ARCHITECTURE.md's scenario
// artifact contract).
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"storagesubsys"
	"storagesubsys/internal/paperref"
	"storagesubsys/internal/sweep"
)

// Spec is one parsed scenario file: a named grid plus optional run
// parameters and assertion bands. Zero-valued run parameters mean
// "inherit" — from cmd/sweep's flags (explicitly set flags win over
// the file) or from sweep.DefaultConfig — mirroring the zero-value
// convention of sweep.Scenario overrides.
type Spec struct {
	// Name labels the grid (like the built-in grid names "ops",
	// "smoke"). Required.
	Name string `json:"name"`
	// Description says what question the grid answers. Optional but
	// strongly encouraged; rendered by cmd/sweep validate.
	Description string `json:"description,omitempty"`
	// Trials is the Monte-Carlo trial count per scenario (0 = inherit).
	Trials int `json:"trials,omitempty"`
	// Seed is the sweep seed (0 = inherit; the default seed is 42, so a
	// spec wanting literally seed 0 should say so in its description and
	// pass -seed 0 instead).
	Seed int64 `json:"seed,omitempty"`
	// Scale is the base population scale in (0, 1.5] (0 = inherit);
	// individual scenarios may override it.
	Scale float64 `json:"scale,omitempty"`
	// Findings additionally evaluates the paper's Findings 1-11 per
	// trial; required true for assertions on the findings_pass metric.
	Findings bool `json:"findings,omitempty"`
	// Deltas additionally reports CRN paired scenario-vs-baseline
	// contrasts (the Result's deltas section and expreport's delta
	// table).
	Deltas bool `json:"deltas,omitempty"`
	// Scenarios is the grid: named override sets, exactly the
	// sweep.Scenario fields (see SCENARIOS.md for every knob, its valid
	// range, and the RNG stream it gates). At least one is required.
	Scenarios []sweep.Scenario `json:"scenarios"`
	// Assertions are optional user-authored expectation bands, joined
	// by cmd/expreport against the sweep result exactly like the
	// paper's published bands in internal/paperref.
	Assertions []Assertion `json:"assertions,omitempty"`
}

// Assertion is one user-authored expectation band: a metric, the value
// it is expected to take, a relative tolerance, and a citation for
// where the expectation comes from. cmd/expreport joins assertions
// against the sweep result with the same verdict rule as the paper
// bands (within CI / in spread / OUTSIDE / no data).
type Assertion struct {
	// Scenario names the grid scenario the band applies to. Empty
	// selects the report's baseline scenario (the scenario named
	// "baseline", else the first scenario) — the same resolution rule
	// internal/expreport uses for the paper confrontation.
	Scenario string `json:"scenario,omitempty"`
	// Metric is a sweep metric name from the internal/sweep Metrics
	// registry (also listed in SCENARIOS.md). Required.
	Metric string `json:"metric"`
	// Expected is the expected value, in the metric's native unit
	// (fractions in [0, 1], not percent). Must be finite and >= 0.
	Expected float64 `json:"expected"`
	// Tolerance is the relative half-width of the band: the assertion
	// accepts [Expected*(1-Tolerance), Expected*(1+Tolerance)]. 0 pins
	// the exact value; must be in [0, 1].
	Tolerance float64 `json:"tolerance,omitempty"`
	// Unit selects the display convention: "fraction", "ratio" or
	// "count". Empty inherits the unit internal/paperref uses for the
	// same metric (count when the registry has none).
	Unit string `json:"unit,omitempty"`
	// Cite says where the expected value comes from — a paper figure, a
	// fleet measurement, a ticket. Required: an uncited band cannot be
	// audited.
	Cite string `json:"cite"`
	// Note optionally qualifies the comparison, rendered alongside the
	// verdict like paperref target notes.
	Note string `json:"note,omitempty"`
	// ScalesWithFleet marks absolute tallies stated for the full
	// ~39,000-system population: the band is multiplied by the
	// scenario's effective population scale before comparing, exactly
	// like paperref.Target.ScalesWithFleet.
	ScalesWithFleet bool `json:"scalesWithFleet,omitempty"`
}

// Band is the assertion's accepted range: Expected widened by the
// relative Tolerance.
func (a Assertion) Band() paperref.Band {
	return paperref.Band{
		Lo: a.Expected * (1 - a.Tolerance),
		Hi: a.Expected * (1 + a.Tolerance),
	}
}

// DisplayUnit resolves the assertion's display unit: the explicit Unit
// field when set, else the unit internal/paperref renders the same
// metric with, else Count.
func (a Assertion) DisplayUnit() paperref.Unit {
	if u, ok := paperref.ParseUnit(a.Unit); ok {
		return u
	}
	if u, ok := paperref.UnitOf(a.Metric); ok {
		return u
	}
	return paperref.Count
}

// BaselineScenario resolves the spec's baseline: the scenario named
// "baseline", else the first scenario — the same rule
// internal/expreport applies to sweep results.
func (s *Spec) BaselineScenario() string {
	for _, sc := range s.Scenarios {
		if sc.Name == "baseline" {
			return sc.Name
		}
	}
	if len(s.Scenarios) > 0 {
		return s.Scenarios[0].Name
	}
	return ""
}

// Config overlays the spec's run parameters onto base and installs the
// grid and its digest: non-zero Trials/Seed/Scale and a true Findings
// override base; everything else (workers, checkpoints, budgets) is
// base's. cmd/sweep re-applies explicitly set flags on top, so the
// precedence is: explicit flag > scenario file > default.
func (s *Spec) Config(base sweep.Config) sweep.Config {
	cfg := base
	if s.Trials > 0 {
		cfg.Trials = s.Trials
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.Scale > 0 {
		cfg.Scale = s.Scale
	}
	if s.Findings {
		cfg.Findings = true
	}
	if s.Deltas {
		cfg.Deltas = true
	}
	cfg.Scenarios = s.Scenarios
	cfg.GridDigest = s.Digest()
	return cfg
}

// Digest is the spec's content fingerprint: the hex SHA-256 of its
// canonical JSON re-encoding. Two files that parse to the same spec —
// whatever their whitespace or field order — share a digest; any
// semantic edit changes it. The sweep checkpoint machinery records it
// (sweep.CheckpointConfig.GridDigest) and refuses to resume a
// checkpoint taken under a different scenario file digest.
func (s *Spec) Digest() string {
	data, err := json.Marshal(s)
	if err != nil {
		// The Spec type marshals unconditionally (no channels, funcs, or
		// NaN-carrying custom marshalers reachable from it).
		panic("scenario: marshaling spec for digest: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Load reads, parses and validates the scenario file at path. Every
// error is one line, prefixed with the path, and positional where the
// input admits a position.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading %s: %w", path, err)
	}
	return Parse(data, path)
}

// builtinDir is where the built-in grids live, both in the repository
// and inside storagesubsys.ScenarioFiles.
const builtinDir = "examples/scenarios"

// Builtin parses the built-in grid name: the committed scenario file
// examples/scenarios/<name>.json, read from the copy embedded in the
// binary. Only the embedded stems resolve, never a path, so a -grid
// argument cannot reach a file outside that set.
func Builtin(name string) (*Spec, error) {
	names := BuiltinNames()
	if !slices.Contains(names, name) {
		return nil, fmt.Errorf("scenario: unknown grid %q (built-in grids: %s; load any other scenario file with -grid-file)",
			name, strings.Join(names, ", "))
	}
	file := builtinDir + "/" + name + ".json"
	data, err := storagesubsys.ScenarioFiles.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading built-in %s: %w", file, err)
	}
	return Parse(data, file)
}

// BuiltinNames lists the built-in grid names, sorted: the stems of the
// embedded scenario files.
func BuiltinNames() []string {
	// The directory is embedded at compile time, so reading it cannot
	// fail.
	entries, _ := storagesubsys.ScenarioFiles.ReadDir(builtinDir)
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	slices.Sort(names)
	return names
}

// Parse decodes and validates one scenario file held in memory. name
// labels the input in errors (Load passes the file path).
func Parse(data []byte, name string) (*Spec, error) {
	spec := &Spec{}
	if err := decodeStrict(data, spec); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", name, err)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", name, err)
	}
	return spec, nil
}

// decodeStrict is the one JSON entry point: unknown fields rejected,
// trailing data rejected, and syntax/type errors carried with their
// line:column position.
func decodeStrict(data []byte, spec *Spec) error {
	dec := json.NewDecoder(bytesReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return positionalError(data, err)
	}
	// A second document after the spec means the file is not a single
	// scenario object (e.g. two concatenated specs).
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || !isEOF(err) {
		return fmt.Errorf("trailing data after the scenario object (one spec per file)")
	}
	return nil
}
