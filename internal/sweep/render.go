package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"storagesubsys/internal/report"
)

// Float is a float64 whose JSON encoding writes NaN (and infinities)
// as null — encoding/json rejects them — so summaries with undefined
// metrics still marshal, and marshal deterministically.
type Float float64

// MarshalJSON implements json.Marshaler with the null-for-NaN rule.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler: null decodes to NaN.
func (f *Float) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// MetricSummary is one metric's aggregate over a scenario's trials.
type MetricSummary struct {
	// Name identifies the metric (see Metrics).
	Name string `json:"name"`
	// Paper is the paper reference the metric reproduces.
	Paper string `json:"paper,omitempty"`
	// N counts the trials for which the metric was defined.
	N int `json:"n"`
	// Point is trial 0's value: the canonical single-seed point
	// estimate, exactly what a standalone cmd/reproduce run computes.
	Point Float `json:"point"`
	// Mean and StdDev summarize the trial sample.
	Mean   Float `json:"mean"`
	StdDev Float `json:"stddev"`
	// CILo and CIHi bound the 95% Student-t confidence interval for
	// the mean.
	CILo Float `json:"ci95lo"`
	CIHi Float `json:"ci95hi"`
	// P5, P50 and P95 are spread quantiles from the trial reservoir
	// (exact while Trials fits in the reservoir).
	P5  Float `json:"p5"`
	P50 Float `json:"p50"`
	P95 Float `json:"p95"`
	// Min and Max bound every observed trial value.
	Min Float `json:"min"`
	Max Float `json:"max"`
}

// ScenarioSummary is one scenario's aggregated sweep output.
type ScenarioSummary struct {
	Scenario Scenario `json:"scenario"`
	// TrialsDone counts the trials aggregated for this scenario. Equal
	// to the sweep's Trials on a complete run; smaller (possibly zero)
	// when a budget, deadline, or resume-in-progress truncated the
	// sweep — the explicit completed-trial count behind every partial
	// CI.
	TrialsDone int             `json:"trialsDone"`
	Metrics    []MetricSummary `json:"metrics"`
}

// Result is a sweep's aggregate output. It deliberately excludes the
// worker count: the encoded bytes are byte-identical for every
// Config.Workers value — and, via the checkpoint/resume machinery, for
// every crash/resume split of the trial sequence.
type Result struct {
	Trials int     `json:"trials"`
	Seed   int64   `json:"seed"`
	Scale  float64 `json:"scale"`
	// Partial marks a budget- or deadline-truncated sweep: per-metric
	// CIs cover only each scenario's TrialsDone completed trials, and
	// the sweep can be resumed from its checkpoint to completion.
	Partial   bool              `json:"partial,omitempty"`
	Scenarios []ScenarioSummary `json:"scenarios"`
	// Deltas holds the CRN paired scenario-vs-baseline contrasts, one
	// entry per non-baseline scenario, when the sweep ran with
	// Config.Deltas (see deltas.go). Absent otherwise, so the canonical
	// JSON of a plain sweep is unchanged.
	Deltas []ScenarioDeltas `json:"deltas,omitempty"`
	// Failures lists trials that panicked (in global trial order):
	// recovered ones were deterministically re-executed and their
	// values are in the aggregates; unrecovered ones contributed
	// nothing. Empty on healthy runs, so the field is invisible in the
	// canonical JSON.
	Failures []TrialFailure `json:"failures,omitempty"`
}

// DeltaSummary is one metric's paired scenario-minus-baseline contrast.
type DeltaSummary struct {
	// Name is the base metric name suffixed with "_delta".
	Name string `json:"name"`
	// N counts the trial pairs for which both sides were defined.
	N int `json:"n"`
	// Mean and StdDev summarize the per-trial differences.
	Mean   Float `json:"mean"`
	StdDev Float `json:"stddev"`
	// CILo and CIHi bound the 95% Student-t CI for the mean difference —
	// the paired CI whose half-width the CRN coupling shrinks.
	CILo Float `json:"ci95lo"`
	CIHi Float `json:"ci95hi"`
	// Corr is the sample correlation between the scenario and baseline
	// legs: near +1 means the common random numbers cancelled most of
	// the noise.
	Corr Float `json:"corr"`
}

// ScenarioDeltas is one non-baseline scenario's contrast block.
type ScenarioDeltas struct {
	Scenario string         `json:"scenario"`
	Baseline string         `json:"baseline"`
	Metrics  []DeltaSummary `json:"metrics"`
}

// TrialsDone sums the per-scenario completed-trial counts: the global
// watermark the result's aggregates cover. Equal to Trials times the
// scenario count on a complete run, smaller on a Partial one.
func (r *Result) TrialsDone() int {
	done := 0
	for _, ss := range r.Scenarios {
		done += ss.TrialsDone
	}
	return done
}

// WriteJSON emits the machine-readable result. Same config ⇒ same
// bytes, for any worker count (the determinism contract cmd/sweep
// -json relies on and CI byte-compares).
func (r *Result) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// DecodeResult strictly decodes one WriteJSON document: unknown
// fields, trailing data, a result without trials or scenarios, and an
// unnamed scenario are all errors. It is the one reader of result
// JSON, shared by cmd/expreport -in and sweepd's stored results; the
// caller prefixes the errors with where the bytes came from.
func DecodeResult(data []byte) (*Result, error) {
	res := &Result{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(res); err != nil {
		return nil, fmt.Errorf("%v (is it a cmd/sweep -json result? it may be truncated or a different file)", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the result object")
	}
	if res.Trials < 1 || len(res.Scenarios) == 0 {
		return nil, fmt.Errorf("holds no sweep data (%d trials, %d scenarios); was the sweep run with -json?", res.Trials, len(res.Scenarios))
	}
	for _, ss := range res.Scenarios {
		if ss.Scenario.Name == "" {
			return nil, errors.New("has a scenario without a name; the data is damaged or not a sweep result")
		}
	}
	return res, nil
}

// Describe renders the scenario's overrides against the sweep's base
// scale, for table headers.
func (s Scenario) Describe(baseScale float64) string {
	parts := []string{fmt.Sprintf("scale %.3g", s.EffScale(baseScale))}
	if s.SpanShelves > 0 {
		parts = append(parts, fmt.Sprintf("RAID span %d shelf(s)", s.SpanShelves))
	}
	if s.Mine {
		parts = append(parts, "events mined from rendered logs")
	}
	if s.DiskAFRMult > 0 {
		parts = append(parts, fmt.Sprintf("disk AFR x%g", s.DiskAFRMult))
	}
	if s.PIRateMult > 0 {
		parts = append(parts, fmt.Sprintf("interconnect rate x%g", s.PIRateMult))
	}
	if s.PISingletonProb > 0 {
		parts = append(parts, fmt.Sprintf("PI singleton prob %g", s.PISingletonProb))
	}
	if s.InstallSkew > 0 {
		parts = append(parts, fmt.Sprintf("install skew +%g (young fleet)", s.InstallSkew))
	} else if s.InstallSkew < 0 {
		parts = append(parts, fmt.Sprintf("install skew %g (old fleet)", s.InstallSkew))
	}
	if s.ChurnMult > 0 {
		parts = append(parts, fmt.Sprintf("churn x%g", s.ChurnMult))
	}
	if s.RepairLagMult > 0 {
		parts = append(parts, fmt.Sprintf("repair lag x%g", s.RepairLagMult))
	}
	if s.RepairLagSigma > 0 {
		parts = append(parts, fmt.Sprintf("repair lag lognormal sigma %g", s.RepairLagSigma))
	}
	if s.SparseShelfFrac > 0 {
		parts = append(parts, fmt.Sprintf("%g%% shelves half-populated", s.SparseShelfFrac*100))
	}
	return s.Name + " (" + strings.Join(parts, ", ") + ")"
}

// Render writes the human-readable comparison: per scenario, one table
// of paper-finding metrics with the single-seed point estimate, the
// trial mean with its 95% confidence interval, spread quantiles, and
// the paper's reference value.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Monte-Carlo sweep: %d trials/scenario, seed %d, base scale %g\n",
		r.Trials, r.Seed, r.Scale)
	if r.Partial {
		fmt.Fprintf(w, "PARTIAL RESULT: the sweep stopped before completing every trial"+
			" (budget or deadline); confidence intervals cover only each scenario's"+
			" completed trials. Resume from the checkpoint to finish.\n")
	}
	for _, ss := range r.Scenarios {
		if r.Partial {
			fmt.Fprintf(w, "\n=== %s — PARTIAL: %d/%d trials ===\n",
				ss.Scenario.Describe(r.Scale), ss.TrialsDone, r.Trials)
			if ss.TrialsDone == 0 {
				fmt.Fprintf(w, "(no trials completed)\n")
				continue
			}
		} else {
			fmt.Fprintf(w, "\n=== %s ===\n", ss.Scenario.Describe(r.Scale))
		}
		headers := []string{"Metric", "Point", "Mean", "95% CI", "P5", "P50", "P95", "StdDev", "Paper"}
		var rows [][]string
		for _, m := range ss.Metrics {
			if m.N == 0 {
				continue // undefined for this scenario/config
			}
			rows = append(rows, []string{
				m.Name,
				report.G(float64(m.Point), 4),
				report.G(float64(m.Mean), 4),
				fmt.Sprintf("[%s, %s]", report.G(float64(m.CILo), 4), report.G(float64(m.CIHi), 4)),
				report.G(float64(m.P5), 4),
				report.G(float64(m.P50), 4),
				report.G(float64(m.P95), 4),
				report.G(float64(m.StdDev), 3),
				m.Paper,
			})
		}
		report.Table(w, headers, rows)
	}
	for _, sd := range r.Deltas {
		fmt.Fprintf(w, "\n=== paired deltas: %s − %s (common random numbers) ===\n", sd.Scenario, sd.Baseline)
		headers := []string{"Metric", "Mean Δ", "95% CI", "StdDev", "Corr", "Sig"}
		var rows [][]string
		for _, m := range sd.Metrics {
			if m.N == 0 {
				continue // no defined pair for this metric
			}
			sig := ""
			if lo, hi := float64(m.CILo), float64(m.CIHi); !math.IsNaN(lo) && !math.IsNaN(hi) && (lo > 0 || hi < 0) {
				sig = "*"
			}
			rows = append(rows, []string{
				m.Name,
				report.G(float64(m.Mean), 4),
				fmt.Sprintf("[%s, %s]", report.G(float64(m.CILo), 4), report.G(float64(m.CIHi), 4)),
				report.G(float64(m.StdDev), 3),
				report.G(float64(m.Corr), 3),
				sig,
			})
		}
		report.Table(w, headers, rows)
	}
}

// Check validates a sweep result against the canonical single-run
// reproduction path. For every scenario it independently rebuilds the
// fleet and reruns the trial-0 simulation without any scratch reuse,
// and requires every metric to match the sweep's retained point
// estimate bit for bit — proving the checkpoint/Reset and
// scratch-recycling machinery changes nothing. It then requires each
// point estimate to fall within the sweep spread (mean ± 6 standard
// deviations, with a small relative floor) and each mean CI to be
// well-formed. cfg must be the Config the result was produced with.
func (r *Result) Check(cfg Config) error {
	scens := cfg.Scenarios
	if len(scens) != len(r.Scenarios) {
		return fmt.Errorf("sweep: check config has %d scenarios, result has %d", len(scens), len(r.Scenarios))
	}
	for _, f := range r.Failures {
		if !f.Recovered {
			return fmt.Errorf("sweep: scenario %q trial %d panicked %d time(s) without recovering (last panic: %s); its metrics are missing from the aggregates",
				f.Scenario, f.Trial, f.Attempts, f.Panic)
		}
	}
	for si, ss := range r.Scenarios {
		if r.Partial && ss.TrialsDone == 0 {
			continue // nothing aggregated; no point estimate to validate
		}
		run := newScenarioRun(scens[si], cfg)
		vals := run.trial(&cfg, BuildFleet(run.key, cfg.Seed), 0, nil)
		for _, m := range ss.Metrics {
			want := vals[metricIndex(m.Name)]
			got := float64(m.Point)
			if math.IsNaN(want) != math.IsNaN(got) || (!math.IsNaN(want) && want != got) {
				return fmt.Errorf("sweep: scenario %q metric %s: sweep trial 0 = %v, independent single run = %v (scratch-reuse divergence)",
					ss.Scenario.Name, m.Name, got, want)
			}
			if m.N == 0 || math.IsNaN(got) {
				continue
			}
			mean, sd := float64(m.Mean), float64(m.StdDev)
			if math.IsNaN(sd) {
				sd = 0 // single trial: the point is the mean
			}
			slack := 6*sd + 1e-9 + 1e-6*math.Abs(mean)
			if got < mean-slack || got > mean+slack {
				return fmt.Errorf("sweep: scenario %q metric %s: point estimate %v outside sweep bracket %v ± %v",
					ss.Scenario.Name, m.Name, got, mean, slack)
			}
			if m.N >= 2 {
				lo, hi := float64(m.CILo), float64(m.CIHi)
				if math.IsNaN(lo) || math.IsNaN(hi) || lo > mean || hi < mean {
					return fmt.Errorf("sweep: scenario %q metric %s: malformed 95%% CI [%v, %v] around mean %v",
						ss.Scenario.Name, m.Name, lo, hi, mean)
				}
			}
		}
	}
	return nil
}
