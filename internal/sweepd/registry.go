package sweepd

// The job registry: every submitted sweep is a Job with a durable
// on-disk identity under <Dir>/<job-id>/ —
//
//	spec.json   the submitted scenario file, byte-for-byte
//	job.json    metadata (seq, name, digest, state, error), temp+rename
//	sweep.ckpt  the engine's checkpoint (plus .prev), written by Execute
//	result.json the final Result bytes, written only on completion
//
// job.json is rewritten only on state transitions, so a crashed server
// leaves its running jobs persisted as "running"; restore() re-parses
// every job dir at startup and re-enqueues everything non-terminal,
// which is what makes SIGTERM-drain-and-restart (and real crashes)
// resume instead of forget. The state machine:
//
//	queued ──▶ running ──▶ done
//	   │          │ ├────▶ failed
//	   │          │ └────▶ partial   (server drain; resumed on restart)
//	   └──────────┴──────▶ cancelled (DELETE; checkpoint kept)
//
// partial, like queued and running, is a non-terminal state: a
// restarted server puts it back in the queue. done, failed and
// cancelled are terminal.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

// JobState is a job's position in the lifecycle state machine above.
type JobState string

const (
	// StateQueued: accepted and persisted, waiting for a pool slot.
	StateQueued JobState = "queued"
	// StateRunning: a pool worker is executing the sweep.
	StateRunning JobState = "running"
	// StatePartial: the server drained (shutdown) mid-sweep; the final
	// checkpoint is on disk and a restarted server resumes the job.
	StatePartial JobState = "partial"
	// StateDone: complete; result.json holds the canonical bytes.
	StateDone JobState = "done"
	// StateFailed: the sweep returned an error. Terminal.
	StateFailed JobState = "failed"
	// StateCancelled: stopped by DELETE. The drain checkpoint is kept
	// for inspection but the server does not auto-resume. Terminal.
	StateCancelled JobState = "cancelled"
)

// terminal reports whether the state ends the lifecycle: the job never
// re-enters the queue, on this server or a restarted one.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

const (
	specFile       = "spec.json"
	metaFile       = "job.json"
	resultFile     = "result.json"
	checkpointFile = "sweep.ckpt"
)

// Job is one submitted sweep. Mutable fields (state, error, latest,
// result) are guarded by the server mutex; cancel is the job's
// Interrupt bit, flipped by DELETE and polled lock-free by the trial
// workers.
type Job struct {
	// ID is the external identity ("job-000001") and the state
	// directory name.
	ID string
	// seq is the monotone submission number behind the ID; restored
	// servers continue the sequence past the largest on disk.
	seq int
	// spec is the parsed scenario file; specRaw its exact bytes.
	spec    *scenario.Spec
	specRaw []byte
	// specErr is why a done job's spec no longer parses on restore (a
	// knob since removed, say). The job stays done and keeps serving
	// its result; only the report, which needs the spec, answers with
	// this error.
	specErr error
	// cfg is the spec resolved against the server's base config —
	// everything but the per-run seams (checkpoint path, interrupt,
	// observer, fleet source), which runJob wires.
	cfg sweep.Config

	state  JobState
	errMsg string
	cancel atomic.Bool
	// latest is the newest checkpoint state observed via OnCheckpoint
	// (or lazily recovered from disk); the status endpoint derives
	// partial results from it.
	latest *sweep.CheckpointState
	// result and resultJSON are set on completion (lazily loaded from
	// result.json for jobs restored as done).
	result     *sweep.Result
	resultJSON []byte
}

// jobMeta is the serialized form of a Job's durable metadata.
type jobMeta struct {
	ID     string   `json:"id"`
	Seq    int      `json:"seq"`
	Name   string   `json:"name"`
	Digest string   `json:"digest"`
	State  JobState `json:"state"`
	Error  string   `json:"error,omitempty"`
}

// dir is the job's state directory under root.
func (j *Job) dir(root string) string { return filepath.Join(root, j.ID) }

// persistLocked writes the job's metadata durably (temp + rename).
// Caller holds the server mutex.
func (s *Server) persistLocked(j *Job) error {
	meta := jobMeta{
		ID: j.ID, Seq: j.seq, Name: j.spec.Name, Digest: j.spec.Digest(),
		State: j.state, Error: j.errMsg,
	}
	data, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("sweepd: marshaling %s metadata: %w", j.ID, err)
	}
	return writeFileAtomic(filepath.Join(j.dir(s.cfg.Dir), metaFile), append(data, '\n'))
}

// saveLocked is persistLocked for transitions that proceed whether or
// not the write succeeds: the in-memory state stays as set, and a
// failure is reported through Config.Logf with the job ID and the state
// being written. Caller holds the server mutex.
func (s *Server) saveLocked(j *Job) {
	if err := s.persistLocked(j); err != nil {
		s.logf("sweepd: %s: persisting state %s: %v", j.ID, j.state, err)
	}
}

// writeFileAtomic writes data via a temp file and rename, so readers
// (and a restarted server) only ever see a complete old or new file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// restore scans the state directory and rebuilds the registry: every
// job dir is re-parsed from its own spec.json, non-terminal jobs are
// re-enqueued in submission order (os.ReadDir sorts names, and the
// zero-padded IDs sort by seq), and the seq counter continues past the
// largest restored value. A job whose spec no longer parses or whose
// resolved config no longer validates is marked failed rather than
// wedging startup.
func (s *Server) restore() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("sweepd: scanning state dir: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "job-") {
			continue
		}
		dir := filepath.Join(s.cfg.Dir, ent.Name())
		metaRaw, err := os.ReadFile(filepath.Join(dir, metaFile))
		if err != nil {
			continue // half-created dir (crash between mkdir and persist)
		}
		var meta jobMeta
		if err := json.Unmarshal(metaRaw, &meta); err != nil || meta.ID != ent.Name() {
			continue
		}
		j := &Job{ID: meta.ID, seq: meta.Seq, state: meta.State, errMsg: meta.Error}
		if meta.Seq >= s.nextSeq {
			s.nextSeq = meta.Seq + 1
		}
		raw, err := os.ReadFile(filepath.Join(dir, specFile))
		if err != nil {
			j.state, j.errMsg = StateFailed, fmt.Sprintf("sweepd: restoring %s: %v", meta.ID, err)
			s.addLocked(j)
			continue
		}
		j.specRaw = raw
		spec, err := scenario.Parse(raw, filepath.Join(meta.ID, specFile))
		if err == nil {
			j.spec = spec
			j.cfg = s.resolve(spec)
			err = validateResolved(j.cfg)
		}
		if err != nil {
			j.spec = placeholderSpec(meta.Name)
			if j.state == StateDone {
				// result.json does not depend on the spec: keep it.
				j.specErr = err
				s.addLocked(j)
				continue
			}
			j.state, j.errMsg = StateFailed, err.Error()
			s.addLocked(j)
			s.saveLocked(j)
			continue
		}
		if !j.state.terminal() {
			// queued, running, or partial: back in the queue. The runner
			// recovers the checkpoint (if any) and resumes.
			j.state = StateQueued
			s.saveLocked(j)
			s.queue = append(s.queue, j)
		}
		s.addLocked(j)
	}
	return nil
}

// placeholderSpec stands in for a spec that no longer parses, so a
// failed-on-restore job can still be listed and persisted.
func placeholderSpec(name string) *scenario.Spec {
	return &scenario.Spec{Name: name}
}

// addLocked indexes a job. Caller holds the server mutex (or is inside
// single-threaded construction).
func (s *Server) addLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
}
