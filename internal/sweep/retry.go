package sweep

// Trial panic isolation and deterministic retry. Each trial executes
// under a recover boundary; a panicking trial quarantines the worker's
// possibly-corrupted recycled state (the cached fleet, whose
// mid-trial mutations are torn, and the sim.Scratch, whose buffers may
// alias them) and re-executes the trial from its trialSeed on a
// freshly built fleet and a fresh Scratch. Because a trial's metric
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

	"storagesubsys/internal/experiments"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

// DefaultRetries is the per-trial retry bound when Config.MaxRetries
// is zero: one original attempt plus two quarantined re-executions.
const DefaultRetries = 2

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

// trialWorker is one worker goroutine's recycled state: the cached
// fleet (rebuilt only across fleetKey changes, rolled back with Reset
// otherwise) and the simulation scratch, plus everything needed to
// re-derive a trial from its seed after a quarantine.
type trialWorker struct {
	cfg     *Config
	runs    []scenarioRun
	trials  int
	retries int
	hooks   *Hooks
	nMet    int

	f       *fleet.Fleet
	cp      fleet.Checkpoint
	haveKey FleetKey
	valid   bool
	scratch *sim.Scratch
}

func newTrialWorker(cfg *Config, runs []scenarioRun, trials, nMet int) *trialWorker {
	retries := cfg.MaxRetries
	if retries == 0 {
		retries = DefaultRetries
	} else if retries < 0 {
		retries = 0 // MaxRetries < 0 disables retries entirely
	}
	return &trialWorker{
		cfg: cfg, runs: runs, trials: trials, retries: retries,
		hooks: cfg.Hooks, nMet: nMet, scratch: &sim.Scratch{},
	}
}

// attempt executes one trial attempt under the recover boundary,
// returning the metric vector or the recovered panic text.
func (w *trialWorker) attempt(r *scenarioRun, job, att int) (vals []float64, panicked *string) {
	defer func() {
		if pv := recover(); pv != nil {
			msg := fmt.Sprint(pv)
			panicked = &msg
		}
	}()
	if w.hooks != nil && w.hooks.BeforeTrialAttempt != nil {
		w.hooks.BeforeTrialAttempt(r.scen.Name, job%w.trials, att)
	}
	if !w.valid || r.key != w.haveKey {
		// Release the old fleet before making the next one, so a worker
		// never holds two fleets at once across a key change.
		w.f, w.valid = nil, false
		// The FleetSource seam (sweepd's cross-job cache) substitutes
		// for the direct build; its contract — an exclusively owned
		// fleet indistinguishable from build()'s output — is what keeps
		// the trial values byte-identical either way.
		if w.cfg.FleetSource != nil {
			key, seed := r.key, w.cfg.Seed
			w.f = w.cfg.FleetSource(key, seed, func() *fleet.Fleet { return BuildFleet(key, seed) })
		} else {
			w.f = BuildFleet(r.key, w.cfg.Seed)
		}
		w.cp = w.f.Checkpoint()
		w.haveKey = r.key
		w.valid = true
	} else {
		w.f.Reset(w.cp)
	}
	env := experiments.RunTrial(experiments.Config{
		Scale:  r.key.Scale,
		Seed:   w.cfg.Seed,
		Mine:   r.scen.Mine,
		Params: r.params,
	}, w.f, trialSeed(w.cfg.Seed, job%w.trials), w.scratch)
	return trialVector(env, w.cfg.Findings, make([]float64, 0, w.nMet)), nil
}

// quarantine discards every piece of recycled state a panicking trial
// may have torn: the cached fleet (rebuilt from seed on next use) and
// the scratch (fresh buffers). Retried trials therefore run on state
// indistinguishable from a brand-new worker's.
func (w *trialWorker) quarantine() {
	w.f = nil
	w.valid = false
	w.scratch = &sim.Scratch{}
}

// runJob executes one global job with bounded deterministic retries.
// The returned trialOut always carries the job index; vals is nil only
// when every attempt panicked, in which case fail records the
// permanent failure.
func (w *trialWorker) runJob(job int) trialOut {
	r := &w.runs[job/w.trials]
	var lastPanic string
	for att := 0; ; att++ {
		vals, pv := w.attempt(r, job, att)
		if pv == nil {
			o := trialOut{job: job, vals: vals}
			if att > 0 {
				o.fail = &TrialFailure{
					Scenario: r.scen.Name, Trial: job % w.trials,
					Attempts: att + 1, Panic: lastPanic, Recovered: true,
				}
			}
			return o
		}
		lastPanic = *pv
		w.quarantine()
		if att >= w.retries {
			return trialOut{job: job, fail: &TrialFailure{
				Scenario: r.scen.Name, Trial: job % w.trials,
				Attempts: att + 1, Panic: lastPanic,
			}}
		}
	}
}
