package sweepd

// Robustness suite: the control plane under cancellation, graceful
// drain with restart, simulated crashes (faultinject kill points), and
// concurrent jobs sharing the fleet cache. The invariant throughout is
// the engine's: however a sweep is interrupted, the completed result's
// bytes equal an uninterrupted run's.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"storagesubsys/internal/faultinject"
	"storagesubsys/internal/sweep"
)

// recoverySpec is the inline scenario file the interruption tests
// sweep: two scenarios over one topology (the override touches only
// the failure model), 8 trials each — 16 global trials, enough room to
// interrupt in the middle.
const recoverySpec = `{
  "name": "recovery",
  "trials": 8,
  "scale": 0.004,
  "scenarios": [
    {"name": "baseline"},
    {"name": "repair-lag-x4", "repairLagMult": 4}
  ]
}`

const recoveryTotal = 16

// readMeta reads a job's persisted metadata straight from disk.
func readMeta(t *testing.T, dir, id string) jobMeta {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, id, metaFile))
	if err != nil {
		t.Fatalf("reading %s metadata: %v", id, err)
	}
	var meta jobMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatalf("decoding %s metadata: %v", id, err)
	}
	return meta
}

// releaseOnCleanup guarantees a test gate channel is closed even when
// the test fails early, so the server Drain registered by startServer
// can never deadlock on a hook still parked on the gate. Register it
// after startServer: cleanups run LIFO, so the gate opens before the
// drain waits.
func releaseOnCleanup(t *testing.T, gate chan struct{}) {
	t.Cleanup(func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	})
}

// TestConcurrentJobsBuildFleetOnce submits the same spec twice to a
// two-slot pool: the shared (FleetKey, seed) must be built exactly
// once across both jobs — the fleet cache's singleflight at control-
// plane scale — and both results must be byte-identical.
func TestConcurrentJobsBuildFleetOnce(t *testing.T) {
	ts := startServer(t, t.TempDir(), func(c *Config) { c.Pool = 2 })
	spec := []byte(`{"name": "cache", "scenarios": [{"name": "baseline"}, {"name": "repair-lag-x4", "repairLagMult": 4}]}`)
	a := ts.submit(t, spec)
	b := ts.submit(t, spec)
	ts.waitState(t, a.ID, StateDone)
	ts.waitState(t, b.ID, StateDone)

	// Both scenarios share one topology key and both jobs share the
	// cache: one build total, everything else hits.
	st := ts.CacheStats()
	if st.Builds != 1 {
		t.Fatalf("two same-topology jobs performed %d fleet builds; want exactly 1 (stats %+v)", st.Builds, st)
	}
	if st.Hits == 0 {
		t.Fatalf("no cache hits across two jobs and two scenarios (stats %+v)", st)
	}
	ra, rb := ts.resultOf(t, a.ID), ts.resultOf(t, b.ID)
	if !bytes.Equal(ra, rb) {
		t.Fatal("identical specs produced different result bytes")
	}
	if want := directRun(t, spec, tinyBase(), 1); !bytes.Equal(ra, want) {
		t.Fatal("cached-fleet result differs from direct single-worker sweep")
	}
}

// TestCancelMidSweepLeavesResumableCheckpoint cancels a running job
// through DELETE — issued deterministically from a trial hook, so the
// drain lands at an exact watermark — and verifies the job ends
// cancelled with a recoverable checkpoint whose resume completes to
// the uninterrupted bytes.
func TestCancelMidSweepLeavesResumableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var ts *testServer
	var calls atomic.Int32
	ts = startServer(t, dir, func(c *Config) {
		c.Pool = 1
		c.JobWorkers = 1 // sequential trials: the cancel point is exact
		c.JobHooks = func(id string) *sweep.Hooks {
			return &sweep.Hooks{BeforeTrialAttempt: func(string, int, int) {
				if calls.Add(1) == 3 {
					// Cancel from inside trial 3's attempt: the DELETE flips
					// the interrupt bit, this trial completes, and the lone
					// worker drains. Exactly 3 trials aggregate. (Worker
					// goroutine: report with Errorf, never Fatalf.)
					req, err := http.NewRequest(http.MethodDelete, ts.http.URL+"/v1/jobs/"+id, nil)
					if err != nil {
						t.Errorf("building DELETE: %v", err)
						return
					}
					resp, err := ts.http.Client().Do(req)
					if err != nil {
						t.Errorf("DELETE running job: %v", err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusAccepted {
						t.Errorf("DELETE running job: status %d, want 202", resp.StatusCode)
					}
				}
			}}
		}
	})

	js := ts.submit(t, []byte(recoverySpec))
	final := ts.waitState(t, js.ID, StateCancelled)
	if final.TrialsDone != 3 {
		t.Fatalf("cancelled job aggregated %d trials; want exactly 3", final.TrialsDone)
	}
	if meta := readMeta(t, dir, js.ID); meta.State != StateCancelled {
		t.Fatalf("persisted state %s, want cancelled", meta.State)
	}
	if code, _ := ts.do(t, http.MethodGet, "/v1/jobs/"+js.ID+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", code)
	}

	// The drain checkpoint is recoverable and resumes to the exact
	// uninterrupted bytes — cancellation loses scheduling, not work.
	ckpt := filepath.Join(dir, js.ID, checkpointFile)
	st, _, err := sweep.RecoverCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("recovering cancelled job's checkpoint: %v", err)
	}
	if st.NextJob != 3 || st.NextJob >= recoveryTotal {
		t.Fatalf("checkpoint watermark %d; want the proper prefix 3 of %d", st.NextJob, recoveryTotal)
	}
	cfg := ts.resolve(mustParse(t, recoverySpec))
	cfg.Workers = 3
	cfg.CheckpointPath = ckpt
	res, err := sweep.Execute(cfg, st, nil)
	if err != nil {
		t.Fatalf("resuming cancelled sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("encoding resumed result: %v", err)
	}
	if want := directRun(t, []byte(recoverySpec), tinyBase(), 2); !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("cancel-then-resume bytes differ from an uninterrupted sweep")
	}

	// A cancelled job is terminal: a restarted server must not
	// re-enqueue it.
	ts.Drain()
	ts.http.Close()
	ts2 := startServer(t, dir, nil)
	got := ts2.getStatus(t, js.ID)
	if got.State != StateCancelled {
		t.Fatalf("restarted server shows cancelled job as %s", got.State)
	}
}

// TestDrainRestartResumes interrupts a server mid-job (SIGTERM's code
// path: Drain), asserts the running job persists as partial and the
// queued one as queued, then restarts on the same directory and
// requires both to complete with bytes identical to uninterrupted
// runs — the crash-only-loses-scheduling contract, at server scope.
func TestDrainRestartResumes(t *testing.T) {
	dir := t.TempDir()
	reached := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	ts := startServer(t, dir, func(c *Config) {
		c.Pool = 1
		c.JobWorkers = 1
		c.JobHooks = func(id string) *sweep.Hooks {
			if id != "job-000001" {
				return nil
			}
			return &sweep.Hooks{BeforeTrialAttempt: func(string, int, int) {
				if calls.Add(1) == 3 {
					close(reached)
					<-release // hold trial 3 until the drain flag is up
				}
			}}
		}
	})
	releaseOnCleanup(t, release)
	first := ts.submit(t, []byte(recoverySpec))
	second := ts.submit(t, []byte(`{"name": "queued-behind", "scenarios": [{"name": "baseline"}]}`))

	<-reached
	drained := make(chan struct{})
	go func() { ts.Drain(); close(drained) }()
	for !ts.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-drained

	// Submissions are refused while drained.
	if code, body := ts.do(t, http.MethodPost, "/v1/jobs", []byte(recoverySpec)); code != http.StatusServiceUnavailable {
		t.Fatalf("submission to a drained server: status %d body %q, want 503", code, body)
	}

	if meta := readMeta(t, dir, first.ID); meta.State != StatePartial {
		t.Fatalf("drained running job persisted as %s, want partial", meta.State)
	}
	if meta := readMeta(t, dir, second.ID); meta.State != StateQueued {
		t.Fatalf("drained queued job persisted as %s, want queued", meta.State)
	}
	st, _, err := sweep.RecoverCheckpoint(filepath.Join(dir, first.ID, checkpointFile))
	if err != nil {
		t.Fatalf("recovering drained job's checkpoint: %v", err)
	}
	if st.NextJob != 3 {
		t.Fatalf("drain checkpoint watermark %d, want exactly 3 (one sequential worker, held at trial 3)", st.NextJob)
	}
	ts.http.Close()

	// Restart on the same directory, hooks gone: both jobs must
	// complete, the first resuming its prefix rather than recomputing.
	ts2 := startServer(t, dir, func(c *Config) { c.Pool = 1 })
	ts2.waitState(t, first.ID, StateDone)
	ts2.waitState(t, second.ID, StateDone)
	if got, want := ts2.resultOf(t, first.ID), directRun(t, []byte(recoverySpec), tinyBase(), 2); !bytes.Equal(got, want) {
		t.Fatal("drain-restart-resume bytes differ from an uninterrupted sweep")
	}
	if got, want := ts2.resultOf(t, second.ID),
		directRun(t, []byte(`{"name": "queued-behind", "scenarios": [{"name": "baseline"}]}`), tinyBase(), 3); !bytes.Equal(got, want) {
		t.Fatal("queued job's post-restart bytes differ from a direct sweep")
	}

	// The ID sequence continues past restored jobs.
	if js := ts2.submit(t, []byte(`{"name": "post-restart", "scenarios": [{"name": "baseline"}]}`)); js.ID != "job-000003" {
		t.Fatalf("post-restart submission got ID %s, want job-000003", js.ID)
	}
}

// TestKillRestartResumes drives the faultinject crash path end to end:
// a kill point aborts the job with no final checkpoint (persisted
// state still "running", like a real process death), and a restarted
// server resumes from the last periodic checkpoint and converges to
// the uninterrupted bytes.
func TestKillRestartResumes(t *testing.T) {
	dir := t.TempDir()
	plan := faultinject.NewPlan()
	plan.KillAfterJob = 5
	counts := &faultinject.Counts{}
	ts := startServer(t, dir, func(c *Config) {
		c.Pool = 1
		c.CheckpointEvery = 2
		c.JobHooks = func(id string) *sweep.Hooks { return plan.Hooks(counts) }
	})
	js := ts.submit(t, []byte(recoverySpec))
	failed := ts.waitState(t, js.ID, StateFailed)
	if !strings.Contains(failed.Error, "killed") {
		t.Fatalf("killed job reports error %q", failed.Error)
	}
	if counts.Kills.Load() != 1 {
		t.Fatalf("kill hook fired %d times, want 1", counts.Kills.Load())
	}
	// The crash contract: nothing was persisted after the kill, so the
	// durable state still says running and the restart will resume it.
	if meta := readMeta(t, dir, js.ID); meta.State != StateRunning {
		t.Fatalf("killed job persisted as %s; a crash must leave the pre-crash state (running)", meta.State)
	}
	ts.Drain()
	ts.http.Close()

	ts2 := startServer(t, dir, nil)
	ts2.waitState(t, js.ID, StateDone)
	if got, want := ts2.resultOf(t, js.ID), directRun(t, []byte(recoverySpec), tinyBase(), 3); !bytes.Equal(got, want) {
		t.Fatal("kill-restart-resume bytes differ from an uninterrupted sweep")
	}
}

// TestCancelQueuedJob cancels a job that never started: it leaves the
// queue immediately and a restart does not revive it.
func TestCancelQueuedJob(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	ts := startServer(t, dir, func(c *Config) {
		c.Pool = 1
		c.JobHooks = func(id string) *sweep.Hooks {
			return &sweep.Hooks{BeforeTrialAttempt: func(string, int, int) {
				<-gate // park the first job so the second stays queued
			}}
		}
	})
	releaseOnCleanup(t, gate)
	running := ts.submit(t, []byte(recoverySpec))
	queued := ts.submit(t, []byte(`{"name": "never-runs", "scenarios": [{"name": "baseline"}]}`))

	code, _ := ts.do(t, http.MethodDelete, "/v1/jobs/"+queued.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("DELETE queued job: status %d, want 200", code)
	}
	if got := ts.getStatus(t, queued.ID); got.State != StateCancelled || got.TrialsDone != 0 {
		t.Fatalf("cancelled queued job: state %s, %d trials done", got.State, got.TrialsDone)
	}
	close(gate)
	ts.waitState(t, running.ID, StateDone)
	if meta := readMeta(t, dir, queued.ID); meta.State != StateCancelled {
		t.Fatalf("persisted state %s, want cancelled", meta.State)
	}
}

// TestPersistErrorLogged: a transition whose job.json write fails still
// happens in memory, and the failure reaches Config.Logf naming the job
// and the state being written. A directory squatting on the temp file's
// path makes the write fail.
func TestPersistErrorLogged(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	var mu sync.Mutex
	var lines []string
	ts := startServer(t, dir, func(c *Config) {
		c.Pool = 1
		c.JobHooks = func(id string) *sweep.Hooks {
			return &sweep.Hooks{BeforeTrialAttempt: func(string, int, int) {
				<-gate // park the first job so the second stays queued
			}}
		}
		c.Logf = func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			mu.Lock()
			lines = append(lines, line)
			mu.Unlock()
			t.Log(line)
		}
	})
	releaseOnCleanup(t, gate)
	ts.submit(t, []byte(recoverySpec))
	queued := ts.submit(t, []byte(`{"name": "never-runs", "scenarios": [{"name": "baseline"}]}`))
	if err := os.Mkdir(filepath.Join(dir, queued.ID, metaFile+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}

	if code, _ := ts.do(t, http.MethodDelete, "/v1/jobs/"+queued.ID, nil); code != http.StatusOK {
		t.Fatalf("DELETE queued job: status %d, want 200", code)
	}
	if got := ts.getStatus(t, queued.ID); got.State != StateCancelled {
		t.Fatalf("in-memory state %s, want cancelled despite the failed write", got.State)
	}
	if meta := readMeta(t, dir, queued.ID); meta.State != StateQueued {
		t.Fatalf("persisted state %s; the failed write must leave the old file", meta.State)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range lines {
		if strings.Contains(line, queued.ID) && strings.Contains(line, "persisting state cancelled") {
			return
		}
	}
	t.Fatalf("no Logf line reports the failed write of %s:\n%s", queued.ID, strings.Join(lines, "\n"))
}

// TestRestoreKeepsDoneJobWithStaleSpec: a restart over jobs whose
// persisted spec names a removed variance mode. The done job stays
// done and /result serves its result.json unchanged; only /report,
// which needs the spec, answers with the parse error. A queued job
// with the same spec cannot run, so it fails on restore.
func TestRestoreKeepsDoneJobWithStaleSpec(t *testing.T) {
	dir := t.TempDir()
	ts := startServer(t, dir, nil)
	done := ts.submit(t, []byte(recoverySpec))
	ts.waitState(t, done.ID, StateDone)
	want := ts.resultOf(t, done.ID)
	ts.Drain()
	ts.http.Close()

	stale := []byte(strings.Replace(recoverySpec, `"repairLagMult": 4}`, `"repairLagMult": 4, "variance": "antithetic"}`, 1))
	if bytes.Equal(stale, []byte(recoverySpec)) {
		t.Fatal("stale spec edit did not apply")
	}
	if err := os.WriteFile(filepath.Join(dir, done.ID, specFile), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	const queuedID = "job-000002"
	if err := os.Mkdir(filepath.Join(dir, queuedID), 0o755); err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(jobMeta{ID: queuedID, Seq: 2, Name: "recovery", State: StateQueued})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{metaFile: meta, specFile: stale} {
		if err := os.WriteFile(filepath.Join(dir, queuedID, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ts2 := startServer(t, dir, nil)
	const removed = `"variance" is "antithetic", but the antithetic and stratified modes were removed`
	if js := ts2.getStatus(t, done.ID); js.State != StateDone || js.TrialsDone != recoveryTotal || js.TrialsTotal != recoveryTotal {
		t.Fatalf("done job restored as %s with %d/%d trials (error %q)", js.State, js.TrialsDone, js.TrialsTotal, js.Error)
	}
	if got := ts2.resultOf(t, done.ID); !bytes.Equal(got, want) {
		t.Fatal("restored done job serves different result bytes")
	}
	code, body := ts2.do(t, http.MethodGet, "/v1/jobs/"+done.ID+"/report", nil)
	if code != http.StatusConflict || !strings.Contains(string(body), removed) {
		t.Fatalf("report of a job whose spec no longer parses: status %d body %q", code, body)
	}
	if meta := readMeta(t, dir, done.ID); meta.State != StateDone {
		t.Fatalf("done job persisted as %s after restore", meta.State)
	}
	js := ts2.waitState(t, queuedID, StateFailed)
	if !strings.Contains(js.Error, removed) {
		t.Fatalf("queued job failed with %q, want the removed-mode error", js.Error)
	}
}
