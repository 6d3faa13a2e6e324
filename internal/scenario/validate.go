package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"storagesubsys/internal/paperref"
	"storagesubsys/internal/sweep"
)

// Validate checks the parsed spec semantically and returns the first
// violation as a one-line, positional, actionable error (no file-name
// prefix — Parse adds it). The rules, in check order, are documented
// with examples in SCENARIOS.md, and internal/scenario/testdata holds
// one malformed fixture per rule with its exact error line pinned by
// TestValidationErrors.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf(`missing "name" (a scenario file labels its grid like the built-in grid names)`)
	}
	if s.Trials < 0 {
		return fmt.Errorf(`"trials" is %d, must be >= 1 (or omitted to inherit the -trials flag)`, s.Trials)
	}
	if s.Scale != 0 && !(s.Scale > 0 && s.Scale <= 1.5) {
		return fmt.Errorf(`"scale" is %g, must be in (0, 1.5] (or omitted to inherit the -scale flag)`, s.Scale)
	}
	if len(s.Scenarios) == 0 {
		return fmt.Errorf(`"scenarios" is empty: a grid needs at least one scenario`)
	}

	byName := make(map[string]int, len(s.Scenarios))
	for i, sc := range s.Scenarios {
		pos := func(format string, args ...any) error {
			where := fmt.Sprintf("scenarios[%d]", i)
			if sc.Name != "" {
				where += fmt.Sprintf(" %q", sc.Name)
			}
			return fmt.Errorf(where+": "+format, args...)
		}
		if sc.Name == "" {
			return pos(`missing "name"`)
		}
		if first, dup := byName[sc.Name]; dup {
			return pos(`duplicate scenario name (first defined at scenarios[%d])`, first)
		}
		byName[sc.Name] = i
		if err := validateKnobs(sc); err != nil {
			return pos("%v", err)
		}
	}

	for i, a := range s.Assertions {
		pos := func(format string, args ...any) error {
			return fmt.Errorf(fmt.Sprintf("assertions[%d]: ", i)+format, args...)
		}
		if a.Metric == "" {
			return pos(`missing "metric"`)
		}
		if !knownMetric(a.Metric) {
			return pos(`unknown metric %q (the registry lives in internal/sweep/metrics.go and SCENARIOS.md)`, a.Metric)
		}
		target := a.Scenario
		if target == "" {
			target = s.BaselineScenario()
		}
		ti, ok := byName[target]
		if !ok {
			return pos(`scenario %q is not defined in this spec`, a.Scenario)
		}
		if math.IsNaN(a.Expected) || math.IsInf(a.Expected, 0) || a.Expected < 0 {
			return pos(`"expected" is %g, must be finite and >= 0 (metric values are non-negative; fractions are in [0, 1], not percent)`, a.Expected)
		}
		if math.IsNaN(a.Tolerance) || a.Tolerance < 0 || a.Tolerance > 1 {
			return pos(`"tolerance" is %g, must be in [0, 1] (the relative half-width of the accepted band)`, a.Tolerance)
		}
		if a.Unit != "" {
			if _, ok := paperref.ParseUnit(a.Unit); !ok {
				return pos(`unknown unit %q (valid: fraction, ratio, count; omit to inherit the paperref convention)`, a.Unit)
			}
		}
		if a.Cite == "" {
			return pos(`missing "cite" (name the paper figure, measurement, or ticket the expected value comes from)`)
		}
		// Gated metrics: an assertion on a metric the swept config leaves
		// undefined would always report "no data" — reject it up front.
		if a.Metric == "findings_pass" && !s.Findings {
			return pos(`metric "findings_pass" is only defined with top-level "findings": true`)
		}
		if a.Metric == "mined_dropped" && !s.Scenarios[ti].Mine {
			return pos(`metric "mined_dropped" is only defined for scenarios with "mine": true (scenario %q does not mine)`, target)
		}
	}
	return nil
}

// validateKnobs range-checks one scenario's overrides. The ranges are
// the documented contract (SCENARIOS.md): 0 always means "inherit the
// default", so every check admits the zero value.
func validateKnobs(sc sweep.Scenario) error {
	if sc.Scale != 0 && !(sc.Scale > 0 && sc.Scale <= 1.5) {
		return fmt.Errorf(`"scale" is %g, must be in (0, 1.5] (0 inherits the base scale)`, sc.Scale)
	}
	if sc.SpanShelves < 0 || sc.SpanShelves > 8 {
		return fmt.Errorf(`"spanShelves" is %d, must be in [0, 8] (0 inherits the class profile's span)`, sc.SpanShelves)
	}
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"diskAFRMult", sc.DiskAFRMult},
		{"piRateMult", sc.PIRateMult},
		{"churnMult", sc.ChurnMult},
		{"repairLagMult", sc.RepairLagMult},
	} {
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) || m.v < 0 {
			return fmt.Errorf(`%q is %g, must be a finite multiplier >= 0 (0 inherits the default rate)`, m.name, m.v)
		}
	}
	if math.IsNaN(sc.PISingletonProb) || sc.PISingletonProb < 0 || sc.PISingletonProb > 1 {
		return fmt.Errorf(`"piSingletonProb" is %g, must be in [0, 1] (0 inherits the default burst law)`, sc.PISingletonProb)
	}
	if math.IsNaN(sc.InstallSkew) || sc.InstallSkew < -1 || sc.InstallSkew > 1 {
		return fmt.Errorf(`"installSkew" is %g, must be in [-1, 1] (negative ages the fleet, positive youngens it)`, sc.InstallSkew)
	}
	if math.IsNaN(sc.RepairLagSigma) || sc.RepairLagSigma < 0 || sc.RepairLagSigma > 4 {
		return fmt.Errorf(`"repairLagSigma" is %g, must be in [0, 4] (log-space sigma; 0 keeps repairs deterministic)`, sc.RepairLagSigma)
	}
	if math.IsNaN(sc.SparseShelfFrac) || sc.SparseShelfFrac < 0 || sc.SparseShelfFrac > 1 {
		return fmt.Errorf(`"sparseShelfFrac" is %g, must be in [0, 1] (0 keeps shelves uniformly populated)`, sc.SparseShelfFrac)
	}
	return sweep.CheckVariance(sc.Variance)
}

// knownMetric reports whether name is in the sweep metric registry.
func knownMetric(name string) bool {
	for _, m := range sweep.Metrics {
		if m.Name == name {
			return true
		}
	}
	return false
}

// positionalError rewrites an encoding/json decode error into this
// package's one-line vocabulary, attaching line:column where the input
// admits a position.
func positionalError(data []byte, err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		line, col := lineCol(data, syn.Offset)
		return fmt.Errorf("%d:%d: %s", line, col, syn.Error())
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		line, col := lineCol(data, typ.Offset)
		field := typ.Field
		if field == "" {
			field = "(top level)"
		}
		return fmt.Errorf("%d:%d: field %q holds a JSON %s, want %s", line, col, field, typ.Value, typ.Type)
	}
	// DisallowUnknownFields reports `json: unknown field "x"` as a plain
	// error; keep the field name, add where to look.
	if msg := err.Error(); strings.HasPrefix(msg, "json: unknown field ") {
		return fmt.Errorf("unknown field %s (every spec field is documented in SCENARIOS.md)",
			strings.TrimPrefix(msg, "json: unknown field "))
	}
	return err
}

// lineCol converts a byte offset into 1-based line:column.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	prefix := data[:offset]
	line = 1 + bytes.Count(prefix, []byte("\n"))
	if i := bytes.LastIndexByte(prefix, '\n'); i >= 0 {
		col = int(offset) - i
	} else {
		col = int(offset) + 1
	}
	return line, col
}
