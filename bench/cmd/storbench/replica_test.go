package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"storagesubsys/internal/sweep"
)

// TestReplicaMatchesEngine replays a smoke-sized nightly-half job (six
// scenarios, findings and deltas on) through the replica and requires
// sameResult to accept the engine's result, then to reject it after a
// one-ulp change to a later-trial aggregate or a delta summary, which
// the trial-0 points alone would not show.
func TestReplicaMatchesEngine(t *testing.T) {
	o := &options{dir: filepath.Join("..", "..", "workloads"), smoke: true}
	w, err := findWorkload(wNightly)
	if err != nil {
		t.Fatal(err)
	}
	_, spec, err := o.loadSpec(w)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sweepConfig(spec, w, 7, 1, "")
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := newReplica(newTracer(), w.Name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep.run(nil)
	if err := rep.sameResult(res); err != nil {
		t.Fatalf("replica diverged from the engine: %v", err)
	}

	nudge := func(f *sweep.Float) { *f = sweep.Float(math.Nextafter(float64(*f), math.Inf(1))) }
	mean := &res.Scenarios[1].Metrics[0].Mean
	old := *mean
	nudge(mean)
	if err := rep.sameResult(res); err == nil || !strings.Contains(err.Error(), " mean:") {
		t.Errorf("a changed scenario mean: error %v, want a mean mismatch", err)
	}
	*mean = old

	corr := &res.Deltas[0].Metrics[0].Corr
	if math.IsNaN(float64(*corr)) {
		t.Fatal("smoke job has no defined delta correlation to change")
	}
	nudge(corr)
	if err := rep.sameResult(res); err == nil || !strings.Contains(err.Error(), " corr:") {
		t.Errorf("a changed delta correlation: error %v, want a corr mismatch", err)
	}
}
