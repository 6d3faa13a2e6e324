package sweep

// Tests for the control-plane seams cmd/sweep and sweepd drive:
// Interrupt (the one asynchronous drain), OnCheckpoint (the in-memory partial
// results feed) with CheckpointState.PartialResult, and FleetSource
// (the pluggable cross-job fleet build). Each seam must be invisible
// in the result bytes: interrupt-then-resume completes to the
// uninterrupted JSON, partial summaries agree with the live collector,
// and a caching FleetSource sweeps byte-identically to direct builds.

import (
	"bytes"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"storagesubsys/internal/fleet"
)

func encodeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// TestInterruptDrainAndResume cancels a sweep through the Interrupt
// seam after the first periodic checkpoint, then resumes from the
// final checkpoint the drain wrote: the completed result must be
// byte-identical to an uninterrupted run at a different worker count.
func TestInterruptDrainAndResume(t *testing.T) {
	cfg := testConfig(8, 3)
	want := resultJSON(t, cfg)

	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	var cancel atomic.Bool
	icfg := cfg
	icfg.Workers = 2
	icfg.CheckpointPath = path
	icfg.CheckpointEvery = 2
	icfg.Interrupt = cancel.Load
	icfg.OnCheckpoint = func(st *CheckpointState) { cancel.Store(true) }
	partial, err := Execute(icfg, nil, nil)
	if err != nil {
		t.Fatalf("interrupted Execute: %v", err)
	}
	if !partial.Partial {
		t.Fatal("interrupted sweep did not report a Partial result")
	}
	done := 0
	for _, ss := range partial.Scenarios {
		done += ss.TrialsDone
	}
	total := icfg.Trials * len(icfg.Scenarios)
	if done == 0 || done >= total {
		t.Fatalf("interrupt drained at %d/%d trials; want a proper prefix", done, total)
	}

	st, _, err := RecoverCheckpoint(path)
	if err != nil {
		t.Fatalf("recovering drain checkpoint: %v", err)
	}
	if st.NextJob != done {
		t.Fatalf("final checkpoint watermark %d != drained result's %d completed trials", st.NextJob, done)
	}
	rcfg := cfg
	rcfg.Workers = 1
	rcfg.CheckpointPath = path
	res, err := Execute(rcfg, st, nil)
	if err != nil {
		t.Fatalf("resuming drained sweep: %v", err)
	}
	if got := encodeResult(t, res); !bytes.Equal(got, want) {
		t.Fatal("cancel-drain-resume result differs from the uninterrupted bytes")
	}
}

// TestOnCheckpointPartialResults drives a sweep with only the observer
// set (no checkpoint file): watermarks must be non-decreasing, every
// snapshot's PartialResult must report monotonically non-decreasing
// per-scenario TrialsDone, and the final snapshot's PartialResult must
// be byte-identical to the sweep's own Result.
func TestOnCheckpointPartialResults(t *testing.T) {
	cfg := testConfig(6, 2)
	cfg.CheckpointEvery = 1
	var states []*CheckpointState
	cfg.OnCheckpoint = func(st *CheckpointState) { states = append(states, st) }
	res, err := Execute(cfg, nil, nil)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(states) < 3 {
		t.Fatalf("observer saw %d checkpoints; want at least 3 at cadence 1", len(states))
	}

	prevMark := -1
	prevDone := make([]int, len(cfg.Scenarios))
	for i, st := range states {
		if st.NextJob < prevMark {
			t.Fatalf("checkpoint %d watermark %d regressed below %d", i, st.NextJob, prevMark)
		}
		prevMark = st.NextJob
		pr, err := st.PartialResult()
		if err != nil {
			t.Fatalf("checkpoint %d PartialResult: %v", i, err)
		}
		for si, ss := range pr.Scenarios {
			if ss.TrialsDone < prevDone[si] {
				t.Fatalf("checkpoint %d scenario %d TrialsDone %d regressed below %d",
					i, si, ss.TrialsDone, prevDone[si])
			}
			prevDone[si] = ss.TrialsDone
			for _, m := range ss.Metrics {
				if m.N > ss.TrialsDone {
					t.Fatalf("checkpoint %d scenario %d metric %s has N %d > TrialsDone %d",
						i, si, m.Name, m.N, ss.TrialsDone)
				}
			}
		}
	}

	last := states[len(states)-1]
	if last.NextJob != cfg.Trials*len(cfg.Scenarios) {
		t.Fatalf("final checkpoint watermark %d, want %d", last.NextJob, cfg.Trials*len(cfg.Scenarios))
	}
	pr, err := last.PartialResult()
	if err != nil {
		t.Fatalf("final PartialResult: %v", err)
	}
	if pr.Partial {
		t.Fatal("final checkpoint's PartialResult still marked Partial")
	}
	if !bytes.Equal(encodeResult(t, pr), encodeResult(t, res)) {
		t.Fatal("final checkpoint's PartialResult differs from the live Result bytes")
	}
}

// TestPartialResultAllocCeiling bounds what one PartialResult costs on
// a smoke-grid mid-run checkpoint (2 scenarios × every metric, 4
// samples per reservoir) — sweepd pays it on every status poll. A
// reservoir's sample grows with what it holds, the restore sizes it to
// the checkpointed sample, and the quantile scratch is sized to the
// held sample, so no 512-slot capacity array is allocated. Measured:
// 130 allocations and 22.9 KB.
func TestPartialResultAllocCeiling(t *testing.T) {
	const maxAllocs, maxBytes = 190, 40 << 10
	cfg := testConfig(8, 2)
	cfg.CheckpointEvery = 1
	total := cfg.Trials * len(cfg.Scenarios)
	var mid *CheckpointState
	cfg.OnCheckpoint = func(st *CheckpointState) {
		if mid == nil && st.NextJob >= total/2 {
			mid = st
		}
	}
	execute(t, cfg)
	if mid == nil || mid.NextJob == total {
		t.Fatal("no mid-run checkpoint captured")
	}
	run := func() {
		if _, err := mid.PartialResult(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > maxAllocs || bytesPer > maxBytes {
		t.Fatalf("PartialResult at watermark %d/%d: %.0f allocations and %d bytes, ceiling %d and %d",
			mid.NextJob, total, allocs, bytesPer, maxAllocs, maxBytes)
	}
}

// TestFleetSourceCachedClones runs the sweep through a FleetSource
// that keeps one fleet.Shared per (key, seed) — the sweepd cache's
// stacking of a Shared under the sweep's own per-key Shared — and
// requires byte-identical output to the direct-build engine, with
// every distinct (key, seed) built exactly once.
func TestFleetSourceCachedClones(t *testing.T) {
	cfg := testConfig(4, 3)
	want := resultJSON(t, cfg)

	type cacheKey struct {
		key  FleetKey
		seed int64
	}
	var (
		mu       sync.Mutex
		shared   = map[cacheKey]*fleet.Shared{}
		builds   atomic.Int64
		requests atomic.Int64
	)
	ccfg := cfg
	ccfg.Workers = 2
	ccfg.FleetSource = func(key FleetKey, seed int64, build func() *fleet.Fleet) *fleet.Fleet {
		requests.Add(1)
		mu.Lock()
		sh, ok := shared[cacheKey{key, seed}]
		if !ok {
			sh = &fleet.Shared{}
			shared[cacheKey{key, seed}] = sh
		}
		mu.Unlock()
		f, built := sh.Fleet(build)
		if built {
			builds.Add(1)
		}
		return f
	}
	got := encodeResult(t, execute(t, ccfg))
	if !bytes.Equal(got, want) {
		t.Fatal("FleetSource-cached sweep bytes differ from direct-build sweep")
	}

	distinct := map[FleetKey]bool{}
	for _, s := range ccfg.Scenarios {
		distinct[s.FleetKeyIn(ccfg.Scale)] = true
	}
	if builds.Load() != int64(len(distinct)) {
		t.Fatalf("cache built %d fleets for %d distinct topology keys", builds.Load(), len(distinct))
	}
	if requests.Load() < builds.Load() {
		t.Fatalf("FleetSource saw %d requests for %d builds", requests.Load(), builds.Load())
	}
}
