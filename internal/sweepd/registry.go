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
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
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

// Job is one submitted sweep. Mutable fields (state, error, progress)
// are guarded by the server mutex; cancel is the job's Interrupt bit,
// flipped by DELETE and polled lock-free by the trial workers.
type Job struct {
	// ID is the external identity ("job-000001") and the state
	// directory name.
	ID string
	// seq is the monotone submission number behind the ID; restored
	// servers continue the sequence past the largest on disk.
	seq int
	// spec is the parsed scenario file, and digest its Digest.
	spec   *scenario.Spec
	digest string
	// specErr is why a done job's spec no longer parses on restore (a
	// knob since removed, say). The job stays done and keeps serving
	// its result; only the report, which needs the spec, answers with
	// this error.
	specErr error
	// cfg is the spec resolved against the server's base config —
	// everything but the per-run seams (checkpoint path, interrupt,
	// observer, fleet source), which runJob wires. A job restored
	// without a resolvable spec takes the run parameters its result or
	// checkpoint records.
	cfg sweep.Config

	state  JobState
	errMsg string
	cancel atomic.Bool
	// progress is derived when it can change: at submission, at each
	// checkpoint (runJob's OnCheckpoint), at completion (finish), and
	// once on restore from result.json or the recovered checkpoint.
	// The status endpoints copy it.
	progress progress
	// resume is the checkpoint a restored queued job resumes from, read
	// once by restore and dropped when the job starts (runJob) or is
	// cancelled while queued. A job runs at most once per process, and
	// one submitted in this process has a fresh directory, so restore's
	// read is the only one needed.
	resume *sweep.CheckpointState
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
		ID: j.ID, Seq: j.seq, Name: j.spec.Name, Digest: j.digest,
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

// jobID is the ID, and state directory name, of submission seq.
func jobID(seq int) string { return fmt.Sprintf("job-%06d", seq) }

// jobSeq returns the submission number a state directory is named
// for, and false for any other name. Submissions count from 1.
func jobSeq(name string) (int, bool) {
	seq, err := strconv.Atoi(strings.TrimPrefix(name, "job-"))
	return seq, err == nil && seq > 0 && jobID(seq) == name
}

// restore scans the state directory and rebuilds the registry: every
// job directory is restored (restoreJob), non-terminal jobs are
// re-enqueued in submission order (os.ReadDir sorts names, and the
// zero-padded IDs sort by seq), and the seq counter continues past
// every job directory, so a new submission never reuses one.
func (s *Server) restore() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("sweepd: scanning state dir: %w", err)
	}
	for _, ent := range entries {
		seq, ok := jobSeq(ent.Name())
		if !ent.IsDir() || !ok {
			continue
		}
		s.nextSeq = max(s.nextSeq, seq+1)
		j := s.restoreJob(ent.Name(), seq)
		s.addLocked(j)
		if j.state == StateQueued {
			s.queue = append(s.queue, j)
		}
	}
	return nil
}

// restoreJob rebuilds the job in one state directory. A directory
// whose job.json is missing (a crash between mkdir and persist),
// unparsable, or names another ID or seq is listed as failed and left
// exactly as found. Any other job is re-parsed from its own spec.json;
// one whose spec cannot be read, no longer parses or no longer
// validates is marked failed rather than wedging startup, unless it is
// done, and a non-terminal one comes back queued.
func (s *Server) restoreJob(id string, seq int) *Job {
	j := &Job{ID: id, seq: seq}
	dir := j.dir(s.cfg.Dir)
	var meta jobMeta
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err == nil {
		err = json.Unmarshal(raw, &meta)
	}
	if err == nil && (meta.ID != id || meta.Seq != seq) {
		err = fmt.Errorf("%s names %q, seq %d", metaFile, meta.ID, meta.Seq)
	}
	if err != nil {
		j.spec = placeholderSpec("")
		j.digest = j.spec.Digest()
		j.state, j.errMsg = StateFailed, fmt.Sprintf("sweepd: restoring %s: %v", id, err)
		s.logf("%s; left as found", j.errMsg)
		return j
	}
	j.state, j.errMsg = meta.State, meta.Error
	var spec *scenario.Spec
	if raw, err = os.ReadFile(filepath.Join(dir, specFile)); err != nil {
		err = fmt.Errorf("sweepd: restoring %s: %w", id, err)
	} else if spec, err = scenario.Parse(raw, filepath.Join(id, specFile)); err == nil {
		j.cfg = s.resolve(spec)
		err = validateResolved(j.cfg)
	}
	switch {
	case err == nil:
	case j.state == StateDone:
		// result.json does not depend on the spec: keep it.
		spec, j.specErr = placeholderSpec(meta.Name), err
	default:
		spec, j.state, j.errMsg = placeholderSpec(meta.Name), StateFailed, err.Error()
	}
	j.spec, j.digest = spec, spec.Digest()
	if !j.state.terminal() {
		// queued, running, or partial: back in the queue, to resume
		// from the checkpoint restoreProgress recovers (if any).
		j.state = StateQueued
	}
	if j.state != meta.State || j.errMsg != meta.Error {
		s.saveLocked(j)
	}
	s.restoreProgress(j)
	return j
}

// restoreProgress derives a restored job's progress once: a done job's
// from result.json, the way a completing job derives it from its
// result, and any other job's from its recovered checkpoint, which a
// queued job keeps to resume from. A result that cannot be read, or a
// checkpoint that does not recover or derive, leaves the progress
// without per-scenario results; /result and /report then report the
// read error. A job without a resolved config (its spec no longer
// parses) takes the run parameters its result records.
func (s *Server) restoreProgress(j *Job) {
	var res *sweep.Result
	if j.state == StateDone {
		var err error
		if res, err = s.readResult(j); err != nil {
			s.logf("sweepd: restoring %s: %v", j.ID, err)
		}
	} else if st, src, err := sweep.RecoverCheckpoint(filepath.Join(j.dir(s.cfg.Dir), checkpointFile)); err == nil {
		res, _ = st.PartialResult() // nil on error: served like no checkpoint
		if j.state == StateQueued {
			// The engine verifies checkpoint identity against the job's
			// config, so a stale or foreign checkpoint fails the job
			// rather than corrupting it.
			j.resume = st
			s.logf("sweepd: %s resuming from %s at trial %d", j.ID, src, st.NextJob)
		}
	} else if j.state == StateQueued && !errors.Is(err, fs.ErrNotExist) {
		// Both checkpoint generations unreadable: start the sweep over.
		// Determinism makes the restart invisible in the result bytes.
		s.logf("sweepd: %s checkpoint unrecoverable (%v); restarting sweep", j.ID, err)
	}
	if res != nil && j.cfg.Trials*len(j.cfg.Scenarios) == 0 {
		j.cfg.Trials, j.cfg.Seed, j.cfg.Scale = res.Trials, res.Seed, res.Scale
		for _, ss := range res.Scenarios {
			j.cfg.Scenarios = append(j.cfg.Scenarios, ss.Scenario)
		}
	}
	j.progress = withResult(res, j.cfg.Scenarios)
}

// placeholderSpec stands in for a spec a restored job cannot use, so
// the job can still be listed and persisted.
func placeholderSpec(name string) *scenario.Spec {
	return &scenario.Spec{Name: name}
}

// addLocked indexes a job. Caller holds the server mutex (or is inside
// single-threaded construction).
func (s *Server) addLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
}
