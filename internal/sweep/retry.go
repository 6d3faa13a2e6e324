package sweep

// Trial panic isolation and deterministic retry. Each trial executes
// under a recover boundary; a panicking trial quarantines the worker's
// possibly-corrupted recycled state (its fleet, whose mid-trial disk
// writes are torn, and the sim.Scratch, whose buffers may alias them)
// and re-executes the trial from its trialSeed on a fresh as-built
// fleet and a fresh Scratch. Because a trial's metric
// vector is a pure function of (scenario, sweep seed, trial seed) —
// independent of scratch reuse and fleet recycling, the property
// Result.Check enforces — a successful retry contributes exactly the
// value the trial would have produced had it never panicked, so
// recovered panics leave the Result's scenario summaries byte-for-byte
// unchanged. Failures are surfaced as structured TrialFailure records
// in the Result instead of aborting the process.

import (
	"fmt"
	"io"

	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

// maxRetries bounds a trial's quarantined re-executions after a panic:
// one original attempt plus two retries.
const maxRetries = 2

// TrialFailure is the structured record of a trial that panicked. A
// Recovered failure was re-executed successfully and its value is in
// the scenario aggregates; an unrecovered one exhausted its retry
// budget and contributed nothing (its metrics are simply absent from
// the per-metric observation counts). Records appear in global trial
// order, so a deterministic fault plan yields a deterministic log.
type TrialFailure struct {
	// Scenario names the grid cell the trial belonged to.
	Scenario string `json:"scenario"`
	// Trial is the trial index within the scenario.
	Trial int `json:"trial"`
	// Attempts counts executions, the original included.
	Attempts int `json:"attempts"`
	// Panic is the last recovered panic value, rendered as text.
	Panic string `json:"panic"`
	// Recovered reports whether a retry eventually succeeded.
	Recovered bool `json:"recovered"`
}

// Hooks are the sweep engine's fault-injection seams, threaded through
// the worker loop and the collector. Production runs leave them nil;
// internal/faultinject builds deterministic plans against them and the
// recovery test suite drives them under -race. Hook implementations
// must be safe for concurrent use: BeforeTrialAttempt is called from
// every worker goroutine, the other two only from the collector.
type Hooks struct {
	// BeforeTrialAttempt runs before each execution attempt of a trial
	// (attempt 0 is the original). A panic here is handled exactly like
	// a panic inside the trial body: quarantine and deterministic retry.
	BeforeTrialAttempt func(scenario string, trial, attempt int)
	// CheckpointWriter wraps the checkpoint file writer for the
	// ordinal-th checkpoint write of this run (1-based) — the torn-write
	// injection seam.
	CheckpointWriter func(ordinal int, w io.Writer) io.Writer
	// KillAfterJob simulates abrupt process death: when it returns true
	// after global job index job has been aggregated, the run aborts
	// with ErrKilled without writing a final checkpoint, exactly like a
	// crash between trials.
	KillAfterJob func(job int) bool
}

// trialWorker is one worker goroutine's recycled state: its fleet
// (taken from each key run's Shared, rolled back with Reset within the
// run) and the simulation scratch, plus everything needed to re-derive
// a trial from its seed after a quarantine.
type trialWorker struct {
	share *fleetShare

	f       *fleet.Fleet
	cp      fleet.Checkpoint
	sh      *fleet.Shared // the Shared f came from; nil while f is
	scratch *sim.Scratch
}

func newTrialWorker(share *fleetShare) *trialWorker {
	return &trialWorker{share: share, scratch: &sim.Scratch{}}
}

// attempt executes one trial attempt under the recover boundary,
// returning the metric vector or the recovered panic text.
func (w *trialWorker) attempt(r *scenarioRun, sh *fleet.Shared, job, att int) (vals []float64, panicked *string) {
	defer func() {
		if pv := recover(); pv != nil {
			msg := fmt.Sprint(pv)
			panicked = &msg
		}
	}()
	trials := w.share.trials
	if h := w.share.cfg.Hooks; h != nil && h.BeforeTrialAttempt != nil {
		h.BeforeTrialAttempt(r.scen.Name, job%trials, att)
	}
	if w.sh != sh {
		// Release the old fleet before taking the next one, so a worker
		// never holds two fleets at once across a key change.
		w.f, w.sh = nil, nil
		w.f, _ = sh.Fleet(func() *fleet.Fleet { return w.share.build(r.key) })
		w.cp = w.f.Checkpoint()
		w.sh = sh
	} else {
		w.f.Reset(w.cp)
	}
	return r.trial(w.share.cfg, w.f, job%trials, w.scratch), nil
}

// quarantine discards every piece of recycled state a panicking trial
// may have torn: its fleet (taken from the share again on next use)
// and the scratch (fresh buffers). Retried trials therefore run on
// state indistinguishable from a brand-new worker's.
func (w *trialWorker) quarantine() {
	w.f, w.sh = nil, nil
	w.scratch = &sim.Scratch{}
}

// runJob executes one global job with bounded deterministic retries.
// The returned trialOut always carries the job index; vals is nil only
// when every attempt panicked, in which case fail records the
// permanent failure.
func (w *trialWorker) runJob(job int, sh *fleet.Shared) trialOut {
	trials := w.share.trials
	r := &w.share.runs[job/trials]
	var lastPanic string
	for att := 0; ; att++ {
		vals, pv := w.attempt(r, sh, job, att)
		if pv != nil {
			lastPanic = *pv
			w.quarantine()
		}
		if pv == nil && att == 0 {
			return trialOut{job: job, vals: vals}
		}
		if pv == nil || att >= maxRetries {
			return trialOut{job: job, vals: vals, fail: &TrialFailure{
				Scenario: r.scen.Name, Trial: job % trials,
				Attempts: att + 1, Panic: lastPanic, Recovered: pv == nil,
			}}
		}
	}
}
