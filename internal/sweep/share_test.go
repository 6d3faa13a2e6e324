package sweep

// Tests for global trial claiming and the per-key topology share: the
// trials in flight stay near the aggregation watermark, and each
// contiguous run of a fleet key costs one build however many workers
// share it.

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"storagesubsys/internal/fleet"
)

// TestPendingBound bounds how far the trials started run ahead of the
// aggregation watermark, observed through the Hooks alone: when a
// trial's first attempt starts, the trials started but not yet
// aggregated (its own included) must number at most 3W. Jobs are
// claimed in global order, so past the watermark lie only the W trials
// in flight and the few that finished while a slower one still ran.
// Contiguous shards fail this at once: a second worker starts job 12
// of 24 before anything is aggregated. The pool gets a P per worker
// plus one for the collector, so on a small machine Go's time slices
// neither starve the collector nor park a worker mid-trial while the
// others run ahead; trials at scale 0.1 are long against either.
func TestPendingBound(t *testing.T) {
	for _, workers := range []int{2, 4} {
		cfg := testConfig(12, workers)
		cfg.Scale = 0.1
		prev := runtime.GOMAXPROCS(workers + 1)
		scen := map[string]int{}
		for i, s := range cfg.Scenarios {
			scen[s.Name] = i
		}
		var (
			mu                sync.Mutex
			aggregated, ahead int
		)
		cfg.Hooks = &Hooks{
			BeforeTrialAttempt: func(name string, trial, attempt int) {
				if attempt > 0 {
					return
				}
				job := scen[name]*cfg.Trials + trial
				mu.Lock()
				ahead = max(ahead, job+1-aggregated)
				mu.Unlock()
			},
			KillAfterJob: func(job int) bool {
				mu.Lock()
				aggregated = job + 1
				mu.Unlock()
				return false
			},
		}
		execute(t, cfg)
		runtime.GOMAXPROCS(prev)
		t.Logf("workers=%d: at most %d trials started but not aggregated", workers, ahead)
		if bound := 3 * workers; ahead > bound {
			t.Errorf("workers=%d: %d trials started but not aggregated, bound %d", workers, ahead, bound)
		}
	}
}

// TestFleetSourceOncePerKeyRun: on the ops grid (five fleet keys; the
// first two scenarios share one) every contiguous run of a key reaches
// FleetSource exactly once per Execute, for any worker count: the
// first worker to need the key builds it and the others clone its
// topology. The bytes match the single-worker run.
func TestFleetSourceOncePerKeyRun(t *testing.T) {
	base := Config{Trials: 3, Seed: 42, Scale: 0.005, Workers: 1, Scenarios: grid("ops")}
	var runs []FleetKey
	for _, s := range base.Scenarios {
		if k := s.FleetKeyIn(base.Scale); len(runs) == 0 || runs[len(runs)-1] != k {
			runs = append(runs, k)
		}
	}
	want := resultJSON(t, base)
	for _, workers := range []int{1, 2, 4} {
		cfg := base
		cfg.Workers = workers
		var mu sync.Mutex
		calls := map[FleetKey]int{}
		cfg.FleetSource = func(key FleetKey, seed int64, build func() *fleet.Fleet) *fleet.Fleet {
			mu.Lock()
			calls[key]++
			mu.Unlock()
			return build()
		}
		if got := encodeResult(t, execute(t, cfg)); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: bytes differ from the single-worker run", workers)
		}
		for _, k := range runs {
			if calls[k] != 1 {
				t.Errorf("workers=%d: key %+v reached FleetSource %d times, want once", workers, k, calls[k])
			}
		}
		if len(calls) != len(runs) {
			t.Errorf("workers=%d: FleetSource saw %d keys, the grid has %d runs", workers, len(calls), len(runs))
		}
	}
}

// TestRecurringKeyTakesNewFleets: the default grid's keys run A-B-A. A
// worker that skipped B's run must not Reset its fleet from A's first
// run when it reaches A's second; it takes one from the second run's
// Shared, so each run of a key reaches FleetSource once and the pool
// holds one topology per run. The hook holds B's trial until A's
// second run starts, so the worker that ran A's first trial runs A's
// second.
func TestRecurringKeyTakesNewFleets(t *testing.T) {
	base := Config{Trials: 1, Seed: 42, Scale: 0.005, Workers: 1, Scenarios: grid("default")}
	a, b := base.Scenarios[0].FleetKeyIn(base.Scale), base.Scenarios[1].FleetKeyIn(base.Scale)
	if len(base.Scenarios) != 3 || a == b || base.Scenarios[2].FleetKeyIn(base.Scale) != a {
		t.Fatal("the default grid's keys no longer run A-B-A")
	}
	want := resultJSON(t, base)

	cfg := base
	cfg.Workers = 2
	second := make(chan struct{})
	var once sync.Once
	cfg.Hooks = &Hooks{BeforeTrialAttempt: func(name string, _, _ int) {
		switch name {
		case base.Scenarios[1].Name:
			select {
			case <-second:
			case <-time.After(10 * time.Second):
				t.Error("A's second run did not start while B's trial waited")
			}
		case base.Scenarios[2].Name:
			once.Do(func() { close(second) })
		}
	}}
	var mu sync.Mutex
	calls := map[FleetKey]int{}
	cfg.FleetSource = func(key FleetKey, seed int64, build func() *fleet.Fleet) *fleet.Fleet {
		mu.Lock()
		calls[key]++
		mu.Unlock()
		return build()
	}
	if got := encodeResult(t, execute(t, cfg)); !bytes.Equal(got, want) {
		t.Fatal("bytes differ from the single-worker run")
	}
	if calls[a] != 2 || calls[b] != 1 {
		t.Fatalf("FleetSource calls: A %d, B %d; want one per key run (2 and 1)", calls[a], calls[b])
	}
}
