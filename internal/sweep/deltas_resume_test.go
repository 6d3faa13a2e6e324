// Delta-aggregation determinism under the fault-tolerance machinery:
// worker-count invariance, checkpoint/resume byte identity, identity
// protection, and the paper-facing CI-tightening acceptance criterion.
// External package for the same reason as recovery_test.go: these
// tests drive sweeps through internal/faultinject.
package sweep_test

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"storagesubsys/internal/faultinject"
	"storagesubsys/internal/sweep"
)

// deltasConfig is recoveryConfig with paired deltas on, so the delta
// aggregators ride through the tests below.
func deltasConfig(workers int) sweep.Config {
	cfg := recoveryConfig(workers)
	cfg.Deltas = true
	return cfg
}

// TestDeltasWorkerCountInvariance: the Deltas section inherits the
// sweep's core contract — byte-identical JSON for every worker count —
// and actually carries data.
func TestDeltasWorkerCountInvariance(t *testing.T) {
	ref, err := sweep.Execute(deltasConfig(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Deltas) == 0 {
		t.Fatal("Deltas: true produced no delta blocks")
	}
	pairs := 0
	for _, sd := range ref.Deltas {
		if sd.Baseline != sweep.BaselineName {
			t.Fatalf("contrast %s against %q, want the baseline", sd.Scenario, sd.Baseline)
		}
		for _, d := range sd.Metrics {
			pairs += d.N
			if !strings.HasSuffix(d.Name, "_delta") {
				t.Fatalf("delta metric named %q without the _delta suffix", d.Name)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no pairs accumulated in any contrast")
	}
	refJSON := mustJSON(t, ref)
	for _, workers := range []int{2, 4, 7} {
		res, err := sweep.Execute(deltasConfig(workers), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, res), refJSON) {
			t.Fatalf("workers=%d: delta JSON differs from single-worker run", workers)
		}
	}
}

// TestDeltasGatedOff: without Deltas the result carries no deltas
// section and its JSON is byte-identical to the pre-feature shape —
// the omitempty gate that keeps committed goldens valid.
func TestDeltasGatedOff(t *testing.T) {
	res, err := sweep.Execute(recoveryConfig(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deltas != nil {
		t.Fatal("Deltas accumulated without the knob")
	}
	if bytes.Contains(mustJSON(t, res), []byte(`"deltas"`)) {
		t.Fatal("gated-off result still serializes a deltas key")
	}
}

// TestDeltasResumeByteIdentity is the satellite resume contract: kill
// a delta-accumulating sweep mid-flight at various points,
// resume from the periodic checkpoint at a different worker count, and
// the final JSON — Deltas section included — must be byte-identical to
// an uninterrupted run's.
func TestDeltasResumeByteIdentity(t *testing.T) {
	ref, err := sweep.Execute(deltasConfig(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := mustJSON(t, ref)
	for _, tc := range []struct {
		name               string
		killAfter, every   int
		workers1, workers2 int
	}{
		{"before-baseline-done", 3, 2, 2, 3},
		{"across-the-boundary", 7, 2, 3, 1},
		{"deep-in-contrast", 10, 3, 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
			plan := faultinject.NewPlan()
			plan.KillAfterJob = tc.killAfter
			cfg := deltasConfig(tc.workers1)
			cfg.CheckpointPath = ckpt
			cfg.CheckpointEvery = tc.every
			cfg.Hooks = plan.Hooks(nil)
			if _, err := sweep.Execute(cfg, nil, nil); !errors.Is(err, sweep.ErrKilled) {
				t.Fatalf("want ErrKilled, got %v", err)
			}

			st, _, err := sweep.RecoverCheckpoint(ckpt)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if st.Deltas == nil {
				t.Fatal("checkpoint of a delta sweep carries no delta state")
			}
			res, err := sweep.Execute(deltasConfig(tc.workers2), st, nil)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if !bytes.Equal(mustJSON(t, res), refJSON) {
				t.Fatal("resumed delta JSON differs from uninterrupted run")
			}
		})
	}
}

// TestResumeRejectsVarianceMismatch: the deltas toggle is checkpoint
// identity. A delta checkpoint must refuse to resume under a
// configuration without deltas, and one stripped of its delta state
// must be refused rather than resumed with silently empty contrasts.
// A checkpoint naming a removed variance mode, as the sweep base or on
// one scenario, is refused rather than resumed as plain.
func TestResumeRejectsVarianceMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg := deltasConfig(2)
	cfg.CheckpointPath = ckpt
	if _, err := sweep.Execute(cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	st, _, err := sweep.RecoverCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	noDeltas := deltasConfig(2)
	noDeltas.Deltas = false
	if _, err := sweep.Execute(noDeltas, st, nil); err == nil ||
		!strings.Contains(err.Error(), "different sweep configuration") {
		t.Fatalf("deltas-off config accepted a delta checkpoint: %v", err)
	}

	for _, where := range []string{"base", "scenario"} {
		named := *st
		named.Config.Scenarios = append([]sweep.Scenario(nil), st.Config.Scenarios...)
		if where == "base" {
			named.Config.Variance = "antithetic"
		} else {
			named.Config.Scenarios[1].Variance = "antithetic"
		}
		path := filepath.Join(t.TempDir(), where+".ckpt")
		if err := named.Save(path, nil); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := sweep.RecoverCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sweep.Execute(deltasConfig(2), loaded, nil); err == nil ||
			!strings.Contains(err.Error(), `"variance" is "antithetic", but the antithetic and stratified modes were removed`) {
			t.Fatalf("%s: checkpoint naming a removed mode resumed: %v", where, err)
		}
		if _, err := loaded.PartialResult(); err == nil {
			t.Fatalf("%s: PartialResult derived from a checkpoint naming a removed mode", where)
		}
	}

	stripped := *st
	stripped.Deltas = nil
	if _, err := sweep.Execute(deltasConfig(2), &stripped, nil); err == nil ||
		!strings.Contains(err.Error(), "no delta state") {
		t.Fatalf("delta sweep resumed from a checkpoint without delta state: %v", err)
	}

	// The intact checkpoint still resumes (pure restore of a complete
	// run) to the reference bytes.
	res, err := sweep.Execute(deltasConfig(3), st, nil)
	if err != nil {
		t.Fatalf("intact checkpoint refused: %v", err)
	}
	ref, err := sweep.Execute(deltasConfig(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, res), mustJSON(t, ref)) {
		t.Fatal("restored complete run differs from clean run")
	}
}

// TestPairedDeltaCITightening is the PR's acceptance criterion: on the
// canonical ops grid at 10% scale with 24 trials, the CRN paired-delta
// 95% CI must be at most half the width of the naive
// difference-of-independent-CIs interval for at least three contrasts.
// (The observed count on this configuration is ~90 of ~140 defined
// contrasts; the floor of 3 keeps the test robust to metric drift.)
func TestPairedDeltaCITightening(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid acceptance sweep; skipped in -short")
	}
	cfg := sweep.Config{
		Trials: 24, Seed: 42, Scale: 0.10, Deltas: true,
		Scenarios: builtinGrid("ops"),
	}
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	byScen := make(map[string]map[string]sweep.MetricSummary, len(res.Scenarios))
	for _, ss := range res.Scenarios {
		m := make(map[string]sweep.MetricSummary, len(ss.Metrics))
		for _, ms := range ss.Metrics {
			m[ms.Name] = ms
		}
		byScen[ss.Scenario.Name] = m
	}
	base := byScen[sweep.BaselineName]
	if base == nil {
		t.Fatal("ops grid lost its baseline scenario")
	}

	halfWidth := func(lo, hi sweep.Float) float64 {
		return (float64(hi) - float64(lo)) / 2
	}
	tight, total := 0, 0
	for _, sd := range res.Deltas {
		scen := byScen[sd.Scenario]
		for _, d := range sd.Metrics {
			name := strings.TrimSuffix(d.Name, "_delta")
			sm, okS := scen[name]
			bm, okB := base[name]
			if d.N < 2 || !okS || !okB || sm.N < 2 || bm.N < 2 {
				continue
			}
			naive := math.Hypot(halfWidth(sm.CILo, sm.CIHi), halfWidth(bm.CILo, bm.CIHi))
			if naive <= 0 || math.IsNaN(naive) {
				continue
			}
			total++
			if halfWidth(d.CILo, d.CIHi) <= 0.5*naive {
				tight++
			}
		}
	}
	if total == 0 {
		t.Fatal("no contrast had defined CIs on both sides")
	}
	if tight < 3 {
		t.Fatalf("only %d of %d contrasts tightened to <= 0.5x the naive CI half-width, want >= 3 "+
			"(CRN pairing is not cancelling shared noise)", tight, total)
	}
	t.Logf("paired CI <= 0.5x naive for %d of %d contrasts", tight, total)
}
