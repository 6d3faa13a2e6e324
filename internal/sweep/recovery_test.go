// Recovery invariants under injected faults. External test package:
// internal/faultinject imports sweep (it compiles plans to sweep.Hooks),
// so these tests must sit outside the sweep package to use it.
//
// The contract under test, end to end: for any crash point, checkpoint
// cadence, worker count, and recoverable panic schedule, the final
// Result JSON is byte-identical to an uninterrupted clean run's. CI
// additionally runs this file under -race (the test job's sweep race
// pass), so the hook seams double as a concurrency probe.
package sweep_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"storagesubsys/internal/faultinject"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

// builtinGrid returns the scenario list of a built-in grid, resolved
// exactly as cmd/sweep -grid resolves it.
func builtinGrid(name string) []sweep.Scenario {
	spec, err := scenario.Builtin(name)
	if err != nil {
		panic(err)
	}
	return spec.Scenarios
}

// recoveryConfig is the cheap two-scenario sweep the recovery tests
// share. 6 trials x 2 scenarios = 12 global jobs.
func recoveryConfig(workers int) sweep.Config {
	return sweep.Config{
		Trials:    6,
		Seed:      42,
		Scale:     0.005,
		Workers:   workers,
		Scenarios: builtinGrid("smoke"),
	}
}

func mustJSON(t *testing.T, res *sweep.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func cleanRun(t *testing.T, workers int) []byte {
	t.Helper()
	res, err := sweep.Execute(recoveryConfig(workers), nil, nil)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	return mustJSON(t, res)
}

// TestResumeByteIdentity is the tentpole contract: kill the sweep
// after an arbitrary trial, recover from the last periodic checkpoint,
// resume — and the final JSON is byte-identical to an uninterrupted
// run, across kill points, checkpoint cadences, and worker counts on
// both sides of the crash.
func TestResumeByteIdentity(t *testing.T) {
	ref := cleanRun(t, 1)
	for _, tc := range []struct {
		name               string
		killAfter, every   int
		workers1, workers2 int
	}{
		{"early-kill", 3, 2, 1, 3},
		{"mid-kill", 5, 2, 3, 1},
		{"scenario-boundary", 6, 3, 2, 2},
		{"late-kill", 10, 4, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

			plan := faultinject.NewPlan()
			plan.KillAfterJob = tc.killAfter
			var counts faultinject.Counts
			cfg := recoveryConfig(tc.workers1)
			cfg.CheckpointPath = ckpt
			cfg.CheckpointEvery = tc.every
			cfg.Hooks = plan.Hooks(&counts)

			res, err := sweep.Execute(cfg, nil, nil)
			if !errors.Is(err, sweep.ErrKilled) {
				t.Fatalf("killed run returned (%v, %v), want ErrKilled", res, err)
			}
			if counts.Kills.Load() != 1 {
				t.Fatalf("kill hook fired %d times", counts.Kills.Load())
			}

			st, src, err := sweep.RecoverCheckpoint(ckpt)
			if err != nil {
				t.Fatalf("recover after kill: %v", err)
			}
			if src != ckpt {
				t.Fatalf("recovered from %s, want primary", src)
			}
			if st.NextJob > tc.killAfter+1 {
				t.Fatalf("checkpoint watermark %d is past the kill at job %d", st.NextJob, tc.killAfter)
			}

			rcfg := recoveryConfig(tc.workers2)
			rcfg.CheckpointPath = ckpt
			res2, err := sweep.Execute(rcfg, st, nil)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := mustJSON(t, res2); !bytes.Equal(got, ref) {
				t.Fatalf("resumed JSON differs from uninterrupted run (%d vs %d bytes)", len(got), len(ref))
			}
		})
	}
}

// TestTruncatedCheckpointFallsBack: a torn final periodic checkpoint
// (silently truncated write) is detected by its digest on load and
// RecoverCheckpoint falls back to the rotated predecessor; resuming
// from the older state recomputes more trials but yields the same
// bytes.
func TestTruncatedCheckpointFallsBack(t *testing.T) {
	ref := cleanRun(t, 1)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

	// One worker makes the collector strictly sequential, so the
	// cadence is exact: over 12 jobs at cadence 3 with a kill after job
	// 8, checkpoints land at watermarks 3 and 6 and the second write
	// (ordinal 2) is torn.
	plan := faultinject.NewPlan()
	plan.KillAfterJob = 8
	plan.TruncateCheckpoint[2] = 40
	var counts faultinject.Counts
	cfg := recoveryConfig(1)
	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = 3
	cfg.Hooks = plan.Hooks(&counts)

	if _, err := sweep.Execute(cfg, nil, nil); !errors.Is(err, sweep.ErrKilled) {
		t.Fatalf("want ErrKilled, got %v", err)
	}
	if counts.Truncations.Load() == 0 {
		t.Fatal("truncation hook never fired; cadence drifted from the test's model")
	}

	if _, err := sweep.LoadCheckpoint(ckpt); !errors.Is(err, sweep.ErrCheckpointCorrupt) {
		t.Fatalf("torn primary loaded without ErrCheckpointCorrupt: %v", err)
	}
	st, src, err := sweep.RecoverCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if src != ckpt+".prev" {
		t.Fatalf("recovered from %s, want rotated predecessor", src)
	}
	if st.NextJob != 3 {
		t.Fatalf("predecessor watermark %d, want 3", st.NextJob)
	}

	rcfg := recoveryConfig(3)
	res, err := sweep.Execute(rcfg, st, nil)
	if err != nil {
		t.Fatalf("resume from predecessor: %v", err)
	}
	if got := mustJSON(t, res); !bytes.Equal(got, ref) {
		t.Fatal("resume from older checkpoint changed the result bytes")
	}
}

// TestPanicRetryByteIdentity: recoverable scripted panics leave every
// scenario summary byte-for-byte identical to a clean run — the retry
// re-derives the trial from its seed on quarantined-fresh state — and
// each panic is surfaced as a Recovered TrialFailure. That holds too
// when the panic strikes a fleet build other workers are waiting on.
func TestPanicRetryByteIdentity(t *testing.T) {
	ref, err := sweep.Execute(recoveryConfig(1), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	plan := faultinject.NewPlan()
	plan.TrialPanics[faultinject.TrialRef{Scenario: "baseline", Trial: 0}] = 1
	plan.TrialPanics[faultinject.TrialRef{Scenario: "baseline", Trial: 3}] = 2
	plan.TrialPanics[faultinject.TrialRef{Scenario: "disk-afr-x2", Trial: 5}] = 1
	var counts faultinject.Counts
	for _, workers := range []int{1, 4} {
		cfg := recoveryConfig(workers)
		cfg.Hooks = plan.Hooks(&counts)
		res, err := sweep.Execute(cfg, nil, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Failures) != 3 {
			t.Fatalf("workers=%d: %d failure records, want 3", workers, len(res.Failures))
		}
		for _, f := range res.Failures {
			if !f.Recovered {
				t.Fatalf("workers=%d: %+v not recovered within the default budget", workers, f)
			}
			if !strings.Contains(f.Panic, "scripted panic") {
				t.Fatalf("failure record lost the panic value: %+v", f)
			}
		}
		// Byte identity of the science: everything except the failure
		// log matches the clean run.
		got := *res
		got.Failures = nil
		if !bytes.Equal(mustJSON(t, &got), mustJSON(t, ref)) {
			t.Fatalf("workers=%d: recovered-panic run diverged from clean run", workers)
		}
		if err := res.Check(recoveryConfig(workers)); err != nil {
			t.Fatalf("workers=%d: Check rejected recovered run: %v", workers, err)
		}
	}

	// The first fleet build panics while a second worker waits on it.
	// The waiter is not stranded: it builds directly, or clones the
	// retried build if that finished first, and the builder's trial is
	// retried.
	for _, workers := range []int{2, 4} {
		cfg := recoveryConfig(workers)
		var calls atomic.Int32
		var waited atomic.Bool
		cfg.FleetSource = func(_ sweep.FleetKey, _ int64, build func() *fleet.Fleet) *fleet.Fleet {
			if calls.Add(1) == 1 {
				for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if waitingOnBuild() {
						waited.Store(true)
						break
					}
				}
				panic("scripted build panic")
			}
			return build()
		}
		res, err := sweep.Execute(cfg, nil, nil)
		if err != nil {
			t.Fatalf("workers=%d, build panic: %v", workers, err)
		}
		if len(res.Failures) != 1 || !res.Failures[0].Recovered || !strings.Contains(res.Failures[0].Panic, "scripted build panic") {
			t.Fatalf("workers=%d, build panic: failures = %+v, want one recovered build panic", workers, res.Failures)
		}
		if !waited.Load() {
			t.Errorf("workers=%d: no worker waited on the panicking build", workers)
		}
		got := *res
		got.Failures = nil
		if !bytes.Equal(mustJSON(t, &got), mustJSON(t, ref)) {
			t.Fatalf("workers=%d: run with a panicked build diverged from clean run", workers)
		}
	}
}

// waitingOnBuild reports whether a goroutine is blocked in a
// fleet.Shared, waiting for another worker's build of its key.
func waitingOnBuild() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("[chan receive")) && bytes.Contains(g, []byte("fleet.(*Shared).Fleet")) {
			return true
		}
	}
	return false
}

// TestRetryExhaustion: a trial that panics past the retry budget is
// recorded as an unrecovered failure, its metrics are absent from the
// aggregates, and Result.Check refuses the damaged result.
func TestRetryExhaustion(t *testing.T) {
	plan := faultinject.NewPlan()
	plan.TrialPanics[faultinject.TrialRef{Scenario: "baseline", Trial: 2}] = 10
	cfg := recoveryConfig(2)
	cfg.Hooks = plan.Hooks(nil)
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || res.Failures[0].Recovered {
		t.Fatalf("failures = %+v, want one unrecovered record", res.Failures)
	}
	if got := res.Failures[0].Attempts; got != 3 {
		t.Fatalf("attempts = %d, want 3 (original + 2 retries)", got)
	}
	for _, m := range res.Scenarios[0].Metrics {
		if m.N > cfg.Trials-1 {
			t.Fatalf("metric %s counts %d observations; the lost trial leaked in", m.Name, m.N)
		}
	}
	if err := res.Check(cfg); err == nil || !strings.Contains(err.Error(), "without recovering") {
		t.Fatalf("Check accepted a result with an unrecovered failure: %v", err)
	}
}

// TestBudgetPartialPrefix: a trial budget stops the sweep at an exact
// deterministic prefix — Partial result, per-scenario completed
// counts, final checkpoint — and resuming without the budget completes
// to bytes identical to a never-budgeted run.
func TestBudgetPartialPrefix(t *testing.T) {
	ref := cleanRun(t, 1)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

	cfg := recoveryConfig(2)
	cfg.BudgetTrials = 8 // 12 jobs: scenario 0 complete, scenario 1 at 2/6
	cfg.CheckpointPath = ckpt
	part, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Partial {
		t.Fatal("budget-stopped result not marked Partial")
	}
	if got := []int{part.Scenarios[0].TrialsDone, part.Scenarios[1].TrialsDone}; got[0] != 6 || got[1] != 2 {
		t.Fatalf("TrialsDone = %v, want [6 2]", got)
	}
	var render bytes.Buffer
	part.Render(&render)
	if !strings.Contains(render.String(), "PARTIAL") {
		t.Fatal("partial render carries no PARTIAL marking")
	}

	st, _, err := sweep.RecoverCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("budget run left no usable checkpoint: %v", err)
	}
	if st.NextJob != 8 {
		t.Fatalf("budget checkpoint watermark %d, want 8", st.NextJob)
	}
	res, err := sweep.Execute(recoveryConfig(3), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("completed resume still marked Partial")
	}
	if got := mustJSON(t, res); !bytes.Equal(got, ref) {
		t.Fatal("budgeted-then-resumed JSON differs from uninterrupted run")
	}
}

// TestResumeRejectsForeignCheckpoint: resuming under a different sweep
// identity fails with an actionable error naming both configurations,
// before any trial runs.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg := recoveryConfig(1)
	cfg.CheckpointPath = ckpt
	if _, err := sweep.Execute(cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	st, _, err := sweep.RecoverCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	other := recoveryConfig(1)
	other.Seed = 43
	_, err = sweep.Execute(other, st, nil)
	if err == nil || !strings.Contains(err.Error(), "different sweep configuration") {
		t.Fatalf("foreign checkpoint accepted: %v", err)
	}
}

// TestResumeRejectsGridDigestMismatch: the scenario-file digest is part
// of the checkpoint identity. A checkpoint taken under one scenario
// file must not resume under another file — or under a grid built in
// code — even when every swept value matches, and the error must say
// which artifacts disagree.
func TestResumeRejectsGridDigestMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cfg := recoveryConfig(1)
	cfg.CheckpointPath = ckpt
	cfg.GridDigest = strings.Repeat("aa", 32)
	if _, err := sweep.Execute(cfg, nil, nil); err != nil {
		t.Fatal(err)
	}
	st, _, err := sweep.RecoverCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	other := recoveryConfig(1)
	other.GridDigest = strings.Repeat("bb", 32)
	_, err = sweep.Execute(other, st, nil)
	if err == nil || !strings.Contains(err.Error(), "different scenario file") {
		t.Fatalf("digest mismatch accepted: %v", err)
	}

	fileless := recoveryConfig(1)
	_, err = sweep.Execute(fileless, st, nil)
	if err == nil || !strings.Contains(err.Error(), "a grid without a scenario file") {
		t.Fatalf("file-checkpointed state resumed under a grid built in code: %v", err)
	}

	// The matching digest still resumes (the checkpoint is complete, so
	// this is a pure restore — and its bytes must match a clean run).
	same := recoveryConfig(1)
	same.GridDigest = cfg.GridDigest
	res, err := sweep.Execute(same, st, nil)
	if err != nil {
		t.Fatalf("matching digest refused: %v", err)
	}
	if !bytes.Equal(mustJSON(t, res), cleanRun(t, 1)) {
		t.Fatal("digest participation changed the result bytes")
	}
}

// TestRandomizedCrashRecovery: a seed-driven fault schedule — random
// recoverable panics plus a random kill point — must always recover to
// the clean run's bytes. A failure prints the plan seed, which replays
// the schedule exactly.
func TestRandomizedCrashRecovery(t *testing.T) {
	ref := cleanRun(t, 1)
	names := []string{"baseline", "disk-afr-x2"}
	for seed := int64(1); seed <= 4; seed++ {
		plan := faultinject.RandomPlan(seed, names, 6, 0.25)
		ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
		cfg := recoveryConfig(3)
		cfg.CheckpointPath = ckpt
		cfg.CheckpointEvery = 2
		cfg.Hooks = plan.Hooks(nil)

		res, err := sweep.Execute(cfg, nil, nil)
		if errors.Is(err, sweep.ErrKilled) {
			st, _, rerr := sweep.RecoverCheckpoint(ckpt)
			if rerr != nil {
				if !errors.Is(rerr, os.ErrNotExist) {
					t.Fatalf("plan seed %d: recover: %v", seed, rerr)
				}
				// Killed before the first checkpoint: restart from scratch,
				// exactly what the operator would do.
				st = nil
			}
			rcfg := recoveryConfig(2)
			res, err = sweep.Execute(rcfg, st, nil)
		}
		if err != nil {
			t.Fatalf("plan seed %d: %v", seed, err)
		}
		got := *res
		got.Failures = nil
		if !bytes.Equal(mustJSON(t, &got), ref) {
			t.Fatalf("plan seed %d: recovered JSON differs from clean run", seed)
		}
	}
}
