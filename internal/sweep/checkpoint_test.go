package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadCheckpointRejectsEnvelope covers the envelope validation
// paths the end-to-end recovery suite cannot reach: not-JSON files,
// wrong format tags, and future versions must each produce a one-line
// actionable error, never a zero-value resume.
func TestLoadCheckpointRejectsEnvelope(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mustFail := func(path, wantSub string) {
		t.Helper()
		if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("LoadCheckpoint(%s) = %v, want error containing %q", path, err, wantSub)
		}
	}

	mustFail(write("garbage.ckpt", []byte("not json at all")), "truncated or corrupt")
	env := func(format string, version int) []byte {
		data, err := json.Marshal(checkpointEnvelope{Format: format, Version: version, Payload: []byte("{}")})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	mustFail(write("wrongformat.ckpt", env("something-else", 1)), "not a sweep checkpoint")
	mustFail(write("future.ckpt", env(checkpointFormat, 99)), "version 99")
	mustFail(filepath.Join(dir, "missing.ckpt"), "reading checkpoint")

	// A valid envelope whose payload digest mismatches (one flipped
	// payload byte after signing) must be ErrCheckpointCorrupt.
	st := &CheckpointState{Config: checkpointIdentity(Config{Trials: 1, Scenarios: grid("smoke")})}
	st.Scenarios = make([]ScenarioCheckpoint, len(st.Config.Scenarios))
	good := filepath.Join(dir, "good.ckpt")
	if err := st.Save(good, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	flipped := []byte(strings.Replace(string(data), `"nextJob":0`, `"nextJob":7`, 1))
	if string(flipped) == string(data) {
		t.Fatal("test setup: payload byte to flip not found")
	}
	mustFail(write("flipped.ckpt", flipped), "digest mismatch")

	// And the untouched file loads.
	back, err := LoadCheckpoint(good)
	if err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	if !back.Config.equal(st.Config) || back.NextJob != 0 {
		t.Fatalf("round trip changed the state: %+v", back)
	}
}

// TestResumeRejectsReservoirSize: the reservoir capacity is an engine
// constant, yet checkpoints still record it, so a state captured under
// another capacity is refused rather than resumed with differently
// sized quantile samples.
func TestResumeRejectsReservoirSize(t *testing.T) {
	cfg := Config{Trials: 2, Seed: 42, Scale: 0.004, Workers: 1, Scenarios: grid("smoke")}
	var st *CheckpointState
	ccfg := cfg
	ccfg.OnCheckpoint = func(s *CheckpointState) { st = s }
	execute(t, ccfg)
	if st.Config.ReservoirSize != reservoirSize {
		t.Fatalf("checkpoint records reservoir size %d, want %d", st.Config.ReservoirSize, reservoirSize)
	}
	if _, err := Execute(cfg, st, nil); err != nil {
		t.Fatalf("own checkpoint refused: %v", err)
	}
	st.Config.ReservoirSize = reservoirSize / 2
	if _, err := Execute(cfg, st, nil); err == nil || !strings.Contains(err.Error(), "different sweep configuration") {
		t.Fatalf("checkpoint with reservoir size %d accepted: %v", st.Config.ReservoirSize, err)
	}
}

// midRunCheckpoint runs a paired-delta sweep of four trials over scens
// at checkpoint cadence 1 and returns its config with the first
// checkpoint whose watermark reaches next.
func midRunCheckpoint(t testing.TB, scens []Scenario, next int) (Config, *CheckpointState) {
	t.Helper()
	cfg := Config{Trials: 4, Seed: 42, Scale: 0.004, Workers: 1, Deltas: true, Scenarios: scens}
	var st *CheckpointState
	run := cfg
	run.CheckpointEvery = 1
	run.OnCheckpoint = func(s *CheckpointState) {
		if st == nil && s.NextJob >= next {
			st = s
		}
	}
	execute(t, run)
	if st == nil {
		t.Fatalf("no checkpoint reached watermark %d", next)
	}
	return cfg, st
}

// baselineSecond is the smoke grid with its baseline moved behind the
// other scenario, so a checkpoint taken after that scenario's trials
// buffers them as pending delta rows.
func baselineSecond() []Scenario {
	smoke := grid("smoke")
	return []Scenario{smoke[1], smoke[0]}
}

// TestResumeRejectsDeltaRowLength: a checkpoint's delta rows index
// every metric when a pair is pushed, so a resumed sweep must refuse a
// row of the wrong length, or pending rows for scenarios the grid does
// not have, rather than panic in the collector.
func TestResumeRejectsDeltaRowLength(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scens  []Scenario
		tamper func(d *DeltasCheckpoint) []uint64 // returns the row it changed
	}{
		{"short-baseline-row", grid("smoke"), func(d *DeltasCheckpoint) []uint64 {
			row := d.Base[3]
			d.Base[3] = row[:1]
			return row
		}},
		{"long-baseline-row", grid("smoke"), func(d *DeltasCheckpoint) []uint64 {
			row := d.Base[3]
			d.Base[3] = append(row, 0)
			return row
		}},
		{"short-pending-row", baselineSecond(), func(d *DeltasCheckpoint) []uint64 {
			row := d.Pending[0][2]
			d.Pending[0][2] = row[:1]
			return row
		}},
		{"pending-beyond-the-grid", baselineSecond(), func(d *DeltasCheckpoint) []uint64 {
			d.Pending = append(d.Pending, [][]uint64{d.Pending[0][0]})
			return d.Pending[0][0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, st := midRunCheckpoint(t, tc.scens, 4)
			if row := tc.tamper(st.Deltas); row == nil {
				t.Fatal("test setup: the tampered row was not yet aggregated")
			}
			if _, err := Execute(cfg, st, nil); err == nil || !strings.Contains(err.Error(), "delta state") {
				t.Fatalf("resume from a tampered delta row = %v, want a delta-state error", err)
			}
		})
	}
}

// TestPartialResultRejectsShapes: PartialResult sizes its aggregators
// from the checkpoint itself, so each size it allocates from must be
// checked against the payload first — a trial count the delta rows do
// not back, a trial × scenario count that overflows, and a reservoir
// capacity other than the engine's each fail with an error.
func TestPartialResultRejectsShapes(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		tamper     func(st *CheckpointState)
	}{
		{"trials-beyond-the-delta-rows", "baseline rows", func(st *CheckpointState) {
			st.Config.Trials = 1 << 50
		}},
		{"trial-count-overflow", "more jobs than an int counts", func(st *CheckpointState) {
			st.Config.Deltas, st.Deltas = false, nil
			st.Config.Trials = 1<<62 + 1
			st.Config.Scenarios = append(st.Config.Scenarios, st.Config.Scenarios...)
			st.Scenarios = append(st.Scenarios, st.Scenarios...)
		}},
		{"small-reservoir", "capacity", func(st *CheckpointState) {
			st.Scenarios[0].Reservoirs[0].Capacity = reservoirSize / 2
		}},
		{"huge-reservoir", "capacity", func(st *CheckpointState) {
			st.Scenarios[1].Reservoirs[2].Capacity = 1 << 62
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, st := midRunCheckpoint(t, grid("smoke"), 4)
			if _, err := st.PartialResult(); err != nil {
				t.Fatalf("untampered checkpoint refused: %v", err)
			}
			tc.tamper(st)
			if _, err := st.PartialResult(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("PartialResult = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
