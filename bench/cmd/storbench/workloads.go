package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

// workload is one named input set. The sweep workloads are scenario
// files run through sweep.Execute; svc drives sweepd over loopback HTTP
// with svc-job.json as every client's job. BENCHMARK.json and
// bench/README.md record why each was chosen.
type workload struct {
	Name string
	// Spec is the scenario file under the workloads directory.
	Spec string
	// CheckpointEvery is the engine's checkpoint cadence in trials.
	CheckpointEvery int
}

var workloads = []workload{
	{Name: wOps, Spec: "ops-quarter.json", CheckpointEvery: 8},
	{Name: wMine, Spec: "mine-tenth.json", CheckpointEvery: 10},
	// The nightly workflow's checkpoint cadence.
	{Name: wNightly, Spec: "nightly-half.json", CheckpointEvery: 4},
	{Name: wSvc, Spec: "svc-job.json", CheckpointEvery: svcCheckpointEvery},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks every workload to a few seconds (scale 0.005, two
	// trials per scenario) for the package tests.
	smoke bool
	// dir holds the workload files; work is a private scratch directory
	// for checkpoints and sweepd state, removed when the run ends.
	dir  string
	work string
	// spans, when non-empty, receives the traced run's spans as JSON.
	spans string
}

// Smoke sizing: the same shapes at a scale that runs in milliseconds.
const (
	smokeScale  = 0.005
	smokeTrials = 2
)

// loadSpec reads and parses the workload's scenario file through
// scenario.Parse — the loader cmd/sweep -grid-file and sweepd use — and
// applies smoke sizing. It returns the raw bytes parsed and the spec.
func (o *options) loadSpec(w workload) ([]byte, *scenario.Spec, error) {
	path := filepath.Join(o.dir, w.Spec)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if o.smoke {
		// Resize through the spec type so the smoke bytes are still a
		// valid scenario file that the real loader parses below.
		spec, err := scenario.Parse(raw, path)
		if err != nil {
			return nil, nil, err
		}
		spec.Scale, spec.Trials = smokeScale, smokeTrials
		if raw, err = json.Marshal(spec); err != nil {
			return nil, nil, err
		}
	}
	spec, err := scenario.Parse(raw, path)
	if err != nil {
		return nil, nil, err
	}
	return raw, spec, nil
}

// sweepConfig resolves a spec into the engine config one job runs:
// workload seed, the given worker count, and checkpoints at the
// workload's cadence into ckpt.
func sweepConfig(spec *scenario.Spec, w workload, seed int64, workers int, ckpt string) sweep.Config {
	cfg := spec.Config(sweep.Config{Seed: seed})
	cfg.Workers = workers
	cfg.CheckpointPath = ckpt
	cfg.CheckpointEvery = w.CheckpointEvery
	return cfg
}

// resultBytes renders a result the way cmd/sweep -json and sweepd's
// /result do.
func resultBytes(res *sweep.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// removeCheckpoint deletes a checkpoint and its rotated predecessor.
func removeCheckpoint(path string) {
	os.Remove(path)
	os.Remove(path + ".prev")
}
