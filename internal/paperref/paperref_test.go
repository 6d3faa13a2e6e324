package paperref_test

import (
	"math"
	"testing"

	"storagesubsys/internal/paperref"
	"storagesubsys/internal/sweep"
)

// TestRegistryCoversAllFindings pins the registry shape: the Table 1
// population context plus every numbered finding 1-11 tracked in
// ARCHITECTURE.md's traceability table, in order, each with at least
// one numeric target.
func TestRegistryCoversAllFindings(t *testing.T) {
	if len(paperref.Findings) != 12 {
		t.Fatalf("registry has %d findings, want 12 (population + findings 1-11)", len(paperref.Findings))
	}
	for i, f := range paperref.Findings {
		if f.ID != i {
			t.Errorf("finding at position %d has ID %d; registry must be in paper order", i, f.ID)
		}
		if len(f.Targets) == 0 {
			t.Errorf("finding %d (%s) has no numeric targets", f.ID, f.Title)
		}
		if f.Claim == "" || f.Section == "" || f.Title == "" {
			t.Errorf("finding %d is missing claim/section/title", f.ID)
		}
	}
	targets := 0
	for _, f := range paperref.Findings {
		targets += len(f.Targets)
	}
	if targets < 20 {
		t.Errorf("only %d targets across the registry; expected the full metric coverage", targets)
	}
}

// TestTargetsResolveToSweepMetrics guards the join expreport performs:
// every target names a live sweep metric, every band is well-formed,
// and every source carries a citation.
func TestTargetsResolveToSweepMetrics(t *testing.T) {
	known := make(map[string]bool, len(sweep.Metrics))
	for _, m := range sweep.Metrics {
		known[m.Name] = true
	}
	for _, f := range paperref.Findings {
		for _, tg := range f.Targets {
			if !known[tg.Metric] {
				t.Errorf("finding %d target %q does not name a sweep metric", f.ID, tg.Metric)
			}
			if math.IsNaN(tg.Band.Lo) || math.IsNaN(tg.Band.Hi) || tg.Band.Lo > tg.Band.Hi {
				t.Errorf("finding %d target %q has malformed band %+v", f.ID, tg.Metric, tg.Band)
			}
			if tg.Source == "" {
				t.Errorf("finding %d target %q has no citation", f.ID, tg.Metric)
			}
		}
	}
}

// TestBandSemantics covers Intersects, including open-ended and
// degenerate bands and NaN inputs.
func TestBandSemantics(t *testing.T) {
	b := paperref.Band{Lo: 0.2, Hi: 0.55}
	if !b.Intersects(0.5, 0.9) || !b.Intersects(0.55, 0.9) || b.Intersects(0.56, 0.9) || b.Intersects(math.NaN(), 0.9) {
		t.Error("Intersects: overlap rules violated")
	}
	open := paperref.Band{Lo: 0.15, Hi: math.Inf(1)}
	if !open.Intersects(10, 10) || open.Intersects(0.1, 0.1) {
		t.Error("open-ended band intersection wrong")
	}
	point := paperref.Band{Lo: 11, Hi: 11}
	if !point.Intersects(11, 11) || !point.Intersects(10, 12) || point.Intersects(11.5, 12) {
		t.Error("degenerate band semantics wrong")
	}
}

// TestFormatting pins the display conventions the report relies on.
func TestFormatting(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{paperref.Fraction.Format(0.335), "33.50%"},
		{paperref.Ratio.Format(2.0), "2.00x"},
		{paperref.Count.Format(39000), "39000"},
		{paperref.Fraction.Format(math.NaN()), "—"},
		{paperref.Band{Lo: 0.2, Hi: 0.55}.Format(paperref.Fraction), "20.00% – 55.00%"},
		{paperref.Band{Lo: 2, Hi: 2}.Format(paperref.Ratio), "2.00x"},
		{paperref.Band{Lo: 0.15, Hi: math.Inf(1)}.Format(paperref.Fraction), "≥ 15.00%"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("format = %q, want %q", c.got, c.want)
		}
	}
}
