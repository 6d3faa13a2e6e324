package sweepd

// The worker pool: Pool runner goroutines dequeue jobs FIFO and drive
// sweep.Execute with the control-plane seams wired —
//
//	CheckpointPath  <job dir>/sweep.ckpt (durability + resume)
//	OnCheckpoint    publishes each state for the status endpoint
//	Interrupt       job cancel bit OR the server-wide drain bit
//	FleetSource     the cross-job fleet cache
//	Hooks           Config.JobHooks (fault injection; tests only)
//
// Every stop is the engine's own graceful drain: a cancelled or
// drained job ends with a final checkpoint and a Partial result, and
// the runner translates (error, Partial, cancel bit) into the job's
// terminal-or-resumable state. The one deliberate exception is
// sweep.ErrKilled — the fault-injection crash — where the runner
// leaves the persisted state untouched, exactly as a real process
// death would, so restart-and-resume tests exercise the same path real
// crashes take.

import (
	"bytes"
	"errors"
	"io/fs"
	"path/filepath"

	"storagesubsys/internal/sweep"
)

// runner is one pool goroutine: dequeue, run, repeat, exit on Drain.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		j.state = StateRunning
		s.saveLocked(j)
		s.mu.Unlock()
		s.runJob(j)
	}
}

// runJob executes one job to its next state transition.
func (s *Server) runJob(j *Job) {
	dir := j.dir(s.cfg.Dir)
	cfg := j.cfg
	cfg.CheckpointPath = filepath.Join(dir, checkpointFile)
	cfg.Interrupt = func() bool { return j.cancel.Load() || s.draining.Load() }
	cfg.OnCheckpoint = func(st *sweep.CheckpointState) {
		s.mu.Lock()
		j.latest = st
		s.mu.Unlock()
	}
	cfg.FleetSource = s.cache.Get
	if s.cfg.JobHooks != nil {
		cfg.Hooks = s.cfg.JobHooks(j.ID)
	}

	// A checkpoint on disk means this job already ran (before a restart
	// or a crash): resume its prefix instead of recomputing it. The
	// engine verifies checkpoint identity against cfg, so a stale or
	// foreign checkpoint fails the job rather than corrupting it.
	var resume *sweep.CheckpointState
	if st, src, err := sweep.RecoverCheckpoint(cfg.CheckpointPath); err == nil {
		resume = st
		s.logf("sweepd: %s resuming from %s at trial %d", j.ID, src, st.NextJob)
	} else if !errors.Is(err, fs.ErrNotExist) {
		// Both checkpoint generations unreadable: start the sweep over.
		// Determinism makes the restart invisible in the result bytes.
		s.logf("sweepd: %s checkpoint unrecoverable (%v); restarting sweep", j.ID, err)
	}

	res, err := sweep.Execute(cfg, resume, nil)

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case errors.Is(err, sweep.ErrKilled):
		// Simulated process death: like a real crash, nothing further is
		// persisted — job.json still says "running", the last periodic
		// checkpoint stays where it is, and a restarted server resumes
		// the job. In this process the job is parked as failed so it
		// cannot be dequeued again.
		j.state, j.errMsg = StateFailed, err.Error()
		s.logf("sweepd: %s killed by fault injection (resumable on restart)", j.ID)
	case err != nil:
		j.state, j.errMsg = StateFailed, err.Error()
		s.saveLocked(j)
		s.logf("sweepd: %s failed: %v", j.ID, err)
	case res.Partial && j.cancel.Load():
		j.state = StateCancelled
		s.saveLocked(j)
		s.logf("sweepd: %s cancelled after %d trials (checkpoint kept)", j.ID, res.TrialsDone())
	case res.Partial:
		// Server drain: resumable; restore() re-enqueues it.
		j.state = StatePartial
		s.saveLocked(j)
		s.logf("sweepd: %s drained at %d trials; will resume on restart", j.ID, res.TrialsDone())
	default:
		var buf bytes.Buffer
		if werr := res.WriteJSON(&buf); werr != nil {
			j.state, j.errMsg = StateFailed, "sweepd: encoding result: "+werr.Error()
			s.saveLocked(j)
			return
		}
		if werr := writeFileAtomic(filepath.Join(dir, resultFile), buf.Bytes()); werr != nil {
			j.state, j.errMsg = StateFailed, "sweepd: persisting result: "+werr.Error()
			s.saveLocked(j)
			return
		}
		j.result, j.resultJSON = res, buf.Bytes()
		j.state = StateDone
		s.saveLocked(j)
		s.logf("sweepd: %s done", j.ID)
	}
}

// Drain shuts the server down gracefully: new submissions are refused,
// queued jobs stay queued (persisted; a restart re-enqueues them), and
// running jobs are interrupted through the engine's drain path so each
// writes a final checkpoint and lands in StatePartial. Drain returns
// once every runner has exited; the caller can then stop the HTTP
// listener and exit, knowing a server restarted on the same Dir picks
// every unfinished job back up.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
