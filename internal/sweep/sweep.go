// Package sweep is the Monte-Carlo sweep engine: it runs T independent
// failure-history trials per scenario over a declarative scenario grid
// and reports, for every paper-finding statistic, the mean with a 95%
// Student-t confidence interval and spread quantiles — the uncertainty
// a single cmd/reproduce run cannot show.
//
// A trial is exactly the computation a standalone reproduction
// performs (experiments.RunTrial, the code path cmd/reproduce also
// uses), but each fleet key is built once per run of scenarios that
// share it and rolled back with fleet.Reset between trials, and each
// sweep worker recycles a sim.Scratch, so the steady-state trial loop
// allocates only its outputs: the paper's population is a fixed
// topology and the randomness being quantified is the failure
// realization over it.
//
// Workers claim trials one at a time in global order (share.go), and
// each run of a fleet key is served by one fleet.Shared, whose comment
// states the sharing contract: one build, and a Clone of it for every
// other worker. So a pool of W workers holds one topology and W disk
// slabs in the steady state, and two topologies across a key change on
// two workers.
//
// Determinism: the whole sweep is a pure function of its Config.
// Workers only compute; a single collector (collector.go) aggregates
// every trial's metric vector in global trial order, buffering
// out-of-order arrivals. Summaries — and therefore the JSON rendering —
// are byte-identical for every worker count. Trial 0 of every scenario
// replays the canonical single-run seed derivation, so the sweep
// always brackets the point estimate cmd/reproduce reports. Since
// trials are claimed in order, the trials buffered behind the
// watermark are the few that finished while an earlier one still ran
// (TestPendingBound), and a crash loses at most those plus
// CheckpointEvery aggregated trials.
//
// Common random numbers (CRN) — a load-bearing contract, not a habit:
// trialSeed is a pure function of (sweep seed, trial index) and never
// of the scenario, so trial t of every scenario runs on the *identical*
// failure-history stream tree unless a gated knob (RepairLagSigma's
// extra stream) explicitly diverges it. TestCRNStreamIdentity pins
// this. The Deltas machinery (deltas.go) builds directly on it:
// per-trial scenario-minus-baseline differences cancel the shared
// Monte-Carlo noise, so paired-delta confidence intervals are far
// tighter than differencing two independent per-scenario CIs. Changing trialSeed to consume the
// scenario — or un-gating a knob so default streams shift — silently
// destroys that cancellation; treat both as breaking changes. CRN is
// the engine's only variance reduction (see VarianceNone).
package sweep

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"storagesubsys/internal/experiments"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/stats"
)

// RNG stream constants for the sweep's seed derivations, decoupled
// from every stream internal/sim and internal/fleet consume: the
// low-byte identities 0x57/0x52 collide with nothing those domains
// split off the same scenario seed. detlint's streamid analyzer
// enforces uniqueness within this domain.
//
//detlint:streamdomain sweep
const (
	streamTrialSeed uint64 = 0x57 // + trial index << 8: per-trial history seeds
	streamReservoir uint64 = 0x52 // + scenario << 8 + metric << 32: quantile reservoirs
)

// Scenario is one cell of the sweep's declarative grid: a named set of
// overrides applied on top of the sweep's base configuration. The zero
// value of every field means "inherit the default", so a grid JSON
// file only lists what it changes.
type Scenario struct {
	// Name labels the scenario in tables and JSON.
	Name string `json:"name"`
	// Scale overrides the sweep's base population scale (0 = inherit).
	Scale float64 `json:"scale,omitempty"`
	// SpanShelves overrides every class profile's RAID shelf span
	// (0 = profile default; 1 = the Finding 9 single-shelf ablation).
	SpanShelves int `json:"spanShelves,omitempty"`
	// Mine takes events from the AutoSupport mining pipeline (log
	// messages classified by tag, disks resolved by ID; no text is
	// rendered or parsed, while the text round trip of cmd/fleetgen and
	// cmd/analyze joins by serial) instead of the simulator (slower;
	// adds the mined_dropped metric).
	Mine bool `json:"mine,omitempty"`
	// DiskAFRMult multiplies every disk model's AFR (0 = unchanged).
	DiskAFRMult float64 `json:"diskAFRMult,omitempty"`
	// PIRateMult multiplies every physical interconnect rate,
	// interoperability overrides included (0 = unchanged).
	PIRateMult float64 `json:"piRateMult,omitempty"`
	// PISingletonProb overrides the interconnect burst-size singleton
	// probability (0 = default; 1 = no multi-event bursts, an
	// independence ablation for Findings 8 and 11).
	PISingletonProb float64 `json:"piSingletonProb,omitempty"`
	// InstallSkew staggers the deployment cohorts: positive values in
	// (0, 1] compress every class's install window toward its end (a
	// young fleet, deployed late with little exposure), negative values
	// in [-1, 0) toward its start (an old fleet, fully deployed early).
	// See fleet.ClassProfile.SkewInstallWindow. 0 = inherit.
	InstallSkew float64 `json:"installSkew,omitempty"`
	// ChurnMult multiplies every class's proactive (non-failure) disk
	// replacement rate — mid-history replacement waves that split slot
	// residency across more Disk records (0 = unchanged).
	ChurnMult float64 `json:"churnMult,omitempty"`
	// RepairLagMult multiplies the repair-lag median — how long a failed
	// disk's slot stays empty, the RAID vulnerability window
	// (0 = unchanged).
	RepairLagMult float64 `json:"repairLagMult,omitempty"`
	// RepairLagSigma makes the repair lag stochastic: each repair draws
	// a lognormal lag with median RepairLag (after RepairLagMult) and
	// this log-space sigma (0 = deterministic default).
	RepairLagSigma float64 `json:"repairLagSigma,omitempty"`
	// SparseShelfFrac builds this fraction of shelves at half the class
	// mean disk population — a heterogeneous shelf-size mix
	// (0 = uniform default).
	SparseShelfFrac float64 `json:"sparseShelfFrac,omitempty"`
	// Variance is a removed knob: "" or "none" (the plain engine) are
	// the only accepted values, and CheckVariance refuses any other.
	// See VarianceNone.
	Variance string `json:"variance,omitempty"`
}

// params materializes the scenario's failure-model overrides, or nil
// when the defaults apply unchanged.
func (s Scenario) params() *failmodel.Params {
	if s.DiskAFRMult == 0 && s.PIRateMult == 0 && s.PISingletonProb == 0 &&
		s.RepairLagMult == 0 && s.RepairLagSigma == 0 {
		return nil
	}
	p := failmodel.DefaultParams()
	if s.DiskAFRMult > 0 {
		p.ScaleDiskAFR(s.DiskAFRMult)
	}
	if s.PIRateMult > 0 {
		p.ScalePIRates(s.PIRateMult)
	}
	if s.PISingletonProb > 0 {
		p.PIBurst.SingletonProb = s.PISingletonProb
	}
	if s.RepairLagMult > 0 {
		p.ScaleRepairLag(s.RepairLagMult)
	}
	if s.RepairLagSigma > 0 {
		p.RepairLagSigma = s.RepairLagSigma
	}
	return p
}

// EffScale resolves the scenario's population scale against the
// sweep's base scale — the single resolution rule, shared with
// internal/expreport (which scales full-population paper bands by it).
func (s Scenario) EffScale(base float64) float64 {
	if s.Scale > 0 {
		return s.Scale
	}
	return base
}

// VarianceNone is the plain engine, the one variance mode left. The
// two opt-in variance-reduction modes were removed: measured on the
// sweep's own metric vector, neither cut any metric's replicate
// variance by 1.5× at 5% significance (ARCHITECTURE.md, "Variance
// reduction"). Config.Variance, Scenario.Variance and this constant
// stay because the repository benchmark compiles against them, and so
// that a scenario file or checkpoint naming a removed mode is refused
// (CheckVariance) instead of silently running plain.
const VarianceNone = "none"

// CheckVariance rejects a variance knob value other than "" and
// "none". It is the engine's only reader of the removed knob.
func CheckVariance(mode string) error {
	if mode == "" || mode == VarianceNone {
		return nil
	}
	return fmt.Errorf(`"variance" is %q, but the antithetic and stratified modes were removed (neither cut a sweep metric's variance by 1.5×); only "none" remains, so drop the key`, mode)
}

// checkConfigVariance applies CheckVariance to a config's base mode
// and every scenario's.
func checkConfigVariance(base string, scens []Scenario) error {
	if err := CheckVariance(base); err != nil {
		return err
	}
	for _, s := range scens {
		if err := CheckVariance(s.Variance); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// Config controls a sweep run. The whole sweep — every trial, every
// summary, the JSON bytes — is a pure function of this value
// (Workers excepted, which only affects wall-clock).
type Config struct {
	// Trials is the number of Monte-Carlo trials per scenario
	// (minimum 1). Trial 0 replays the canonical single-run seeds.
	Trials int
	// Seed determines every fleet and every trial's failure history.
	Seed int64
	// Scale is the base population scale; scenarios may override it.
	Scale float64
	// Workers sizes the trial-level worker pool; <= 0 selects one per
	// CPU. Results are byte-identical for every worker count.
	Workers int
	// Scenarios is the grid; Execute rejects an empty one.
	Scenarios []Scenario
	// GridDigest, when non-empty, is the content digest of the scenario
	// file the grid was loaded from (internal/scenario Spec.Digest).
	// It never affects any computed value — same scenarios, same bytes,
	// digest or not — but it participates in checkpoint identity:
	// resuming refuses a checkpoint taken under a different scenario
	// file digest. A grid built in code leaves it empty.
	GridDigest string
	// Findings additionally evaluates the paper's Findings 1-11 per
	// trial (the findings_pass metric; roughly doubles per-trial
	// analysis cost).
	Findings bool
	// Variance is a removed knob kept for the repository benchmark:
	// "" or "none" only (see VarianceNone). It never changes a value.
	Variance string
	// Deltas additionally aggregates CRN paired deltas — per-trial
	// scenario-minus-baseline metric differences — into the Result's
	// Deltas section (see deltas.go). Identity-bearing only for the
	// checkpoint (the delta aggregators ride the checkpoint envelope);
	// it never changes any per-scenario summary byte.
	Deltas bool

	// CheckpointPath, when non-empty, periodically persists the
	// collector's aggregation state (see checkpoint.go) so a crashed or
	// budget-stopped sweep can be resumed with Execute; a final
	// checkpoint is written on every graceful exit, partial or not.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in completed trials
	// (0 = 64). Only meaningful with CheckpointPath.
	CheckpointEvery int
	// BudgetTrials, when positive, stops the sweep gracefully once that
	// many trials (in global order, resumed progress included) have
	// been aggregated: workers drain, a checkpoint is written, and the
	// Result is marked Partial with per-scenario completed counts.
	// Deterministic: a budgeted sweep is an exact prefix of the full
	// one.
	BudgetTrials int
	// Hooks are the fault-injection seams (nil in production runs).
	Hooks *Hooks

	// The three fields below are the control-plane seams cmd/sweep and
	// the sweepd server drive. Like Workers and the budgets they are
	// identity-free: none of them may change any aggregated value, so
	// checkpoints ignore them and resuming under different values is
	// always legal.

	// Interrupt, when non-nil, is polled by every worker between
	// trials; once it returns true the sweep drains gracefully —
	// workers stop picking up trials, the aggregated prefix is
	// summarized into a Partial Result, and a final checkpoint is
	// written. It is the one asynchronous stop: cmd/sweep's -max-wall
	// deadline and sweepd's cancel and drain are all Interrupt
	// closures, so the engine itself never reads the clock. The
	// stopping point is then timing-dependent, but the aggregated prefix
	// is still exact, so resuming later completes the identical Result.
	// Must be safe for concurrent use; once it has returned true it must
	// keep returning true.
	Interrupt func() bool
	// OnCheckpoint, when non-nil, receives every checkpoint state the
	// collector captures — the periodic CheckpointEvery-cadence
	// snapshots and the final one on graceful exit — from the collector
	// goroutine. Aggregation waits while the callee runs, so its work
	// must stay bounded. The state is a deep copy the callee owns;
	// watermarks across successive calls are non-decreasing. Setting
	// OnCheckpoint without CheckpointPath enables the periodic capture
	// cadence without writing any file. sweepd derives each job's
	// status from it (CheckpointState.PartialResult).
	OnCheckpoint func(*CheckpointState)
	// FleetSource, when non-nil, replaces the direct fleet build that
	// starts each contiguous run of a fleet key: it receives the
	// topology key, the sweep seed, and the canonical build function,
	// and must return a fleet indistinguishable from build()'s output
	// under the fleet.Shared contract — e.g. one from a Shared of its
	// own, which is how sweepd's cross-job cache makes concurrent sweeps
	// over one topology pay for one build. The engine cuts the run's
	// other workers' fleets from the returned one with Clone. Returning
	// a fleet whose delta another owner writes, or a stale fleet, breaks
	// the byte-identity contract. Must be safe for concurrent use.
	FleetSource func(key FleetKey, seed int64, build func() *fleet.Fleet) *fleet.Fleet
}

// ErrKilled is returned by Execute when Hooks.KillAfterJob simulates
// abrupt process death mid-sweep: no Result, no final checkpoint —
// recovery starts from the last periodic checkpoint, like a real
// crash.
var ErrKilled = errors.New("sweep: killed by fault-injection hook")

// DefaultConfig holds the run defaults — 20 trials per scenario, seed
// 42, quarter scale — and is their only copy: cmd/sweep's flags and
// sweepd's job base both start from it. It names no grid; the caller
// supplies the scenarios.
func DefaultConfig() Config {
	return Config{Trials: 20, Seed: 42, Scale: 0.25}
}

// CheckResolved validates a run's configuration after a scenario file
// and the front end's base settings merge: the checks that no single
// input can make alone. cmd/sweep, cmd/expreport and sweepd all call
// it, each prefixing the error with its own name.
func CheckResolved(cfg Config) error {
	if cfg.Trials < 1 {
		return fmt.Errorf("trial count %d must be at least 1 (scenario file and base config combined)", cfg.Trials)
	}
	if cfg.Scale <= 0 || cfg.Scale > 1.5 {
		return fmt.Errorf("base scale %g must be in (0, 1.5] (scenario file and base config combined)", cfg.Scale)
	}
	return checkConfigVariance(cfg.Variance, cfg.Scenarios)
}

// reservoirSize caps the per-metric quantile sample. Quantiles are
// exact while Trials fits in the reservoir. Checkpoints still record
// it, so a state captured under a different capacity is refused.
const reservoirSize = 512

// trialSeed derives the failure-history seed for one trial. Trial 0
// replays the canonical single-run derivation (sweep seed + 1 —
// exactly what experiments.Setup and cmd/reproduce use), so the
// sweep's spread brackets the standalone point estimate by
// construction; later trials draw decoupled 64-bit keys from a
// splittable stream.
//
// Seed-derivation contract (the crash/resume and retry machinery both
// lean on it; TestTrialSeedContract pins it):
//
//  1. trialSeed is a pure function of (sweep seed, trial index) — it
//     consults no draw position and no prior trial, so a resumed or
//     retried trial re-derives exactly the seed it was first given,
//     regardless of how many trials ran before it or on which worker.
//  2. Trial i > 0 maps to the split stream key 0x57 | i<<8: the trial
//     index occupies bits 8..63 and the low byte is the reserved
//     streamTrialSeed identity, so distinct trial indices below 2^56
//     (far past any reachable sweep size; scenario×trial grids are
//     int-bounded long before) yield distinct stream keys and
//     therefore decoupled streams — resuming after N trials can never
//     collide a recomputed stream with a fresh one.
//  3. Trial 0 bypasses the split entirely (the canonical seed+1), so
//     the reserved low byte keeps the splittable range disjoint from
//     every other stream constant in this domain.
func trialSeed(seed int64, trial int) int64 {
	if trial == 0 {
		return seed + 1
	}
	r := stats.NewRNG(seed)
	c := r.Split(streamTrialSeed | uint64(trial)<<8)
	return int64(c.Uint64())
}

// FleetKey is the subset of a resolved scenario that determines its
// fleet topology. The share compares keys to decide whether a scenario
// boundary starts a new key run, and so new fleets, or continues one
// whose fleets are just Reset; two scenarios differing only in
// failure-model overrides share one population. Together with the
// sweep seed it fully identifies a built fleet, which is why
// Config.FleetSource (the sweepd control plane's cross-job fleet
// cache) is keyed by (FleetKey, seed).
type FleetKey struct {
	Scale  float64
	Span   int
	Skew   float64
	Churn  float64
	Sparse float64
}

// FleetKeyIn resolves the scenario's topology identity against the
// sweep's base scale — the exported form of the key the share
// compares, for callers (the sweepd fleet cache, tests) that need to
// predict which scenarios share a population.
func (s Scenario) FleetKeyIn(baseScale float64) FleetKey {
	return FleetKey{
		Scale:  s.EffScale(baseScale),
		Span:   s.SpanShelves,
		Skew:   s.InstallSkew,
		Churn:  s.ChurnMult,
		Sparse: s.SparseShelfFrac,
	}
}

// scenarioRun is a scenario resolved against the sweep config, shared
// read-only by the workers.
type scenarioRun struct {
	scen   Scenario
	key    FleetKey
	params *failmodel.Params
}

// newScenarioRun resolves a scenario against the sweep config — the
// single resolution path shared by Execute and Result.Check, so overrides
// can never apply differently between the sweep and its self-check.
func newScenarioRun(s Scenario, cfg Config) scenarioRun {
	return scenarioRun{
		scen:   s,
		key:    s.FleetKeyIn(cfg.Scale),
		params: s.params(),
	}
}

// trial runs trial ti of the scenario on f — freshly built, or Reset
// to its pristine checkpoint — and returns the trial's metric vector in
// a fresh slice. It is the one trial path: the sweep workers call it
// with their recycled scratch, Result.Check with a nil one, so the
// self-check reruns exactly the computation it verifies.
func (r *scenarioRun) trial(cfg *Config, f *fleet.Fleet, ti int, scratch *sim.Scratch) []float64 {
	env := experiments.RunTrial(experiments.Config{
		Scale:  r.key.Scale,
		Seed:   cfg.Seed,
		Mine:   r.scen.Mine,
		Params: r.params,
	}, f, trialSeed(cfg.Seed, ti), scratch)
	return trialVector(env, cfg.Findings, make([]float64, 0, len(Metrics)))
}

// BuildFleet constructs the population a FleetKey identifies — the
// exact build that starts each run of scenarios sharing the key,
// exported so a Config.FleetSource implementation can produce the
// canonical fleet for keys it has not cached yet. The build is serial:
// sweep parallelism lives at the trial level.
func BuildFleet(key FleetKey, seed int64) *fleet.Fleet {
	profiles := fleet.DefaultProfiles()
	for i := range profiles {
		if key.Span > 0 {
			profiles[i].SpanShelves = key.Span
		}
		if key.Skew != 0 {
			profiles[i].SkewInstallWindow(key.Skew)
		}
		if key.Churn > 0 {
			profiles[i].ChurnPerDiskYear *= key.Churn
		}
		if key.Sparse > 0 {
			profiles[i].SparseShelfFraction = key.Sparse
		}
	}
	return fleet.Build(profiles, key.Scale, seed)
}

// trialOut is one finished trial's metric vector, tagged with its
// global job index for ordered aggregation. vals is nil (and fail
// non-nil) when the trial exhausted its retry budget.
type trialOut struct {
	job  int
	vals []float64
	fail *TrialFailure
}

// Progress receives collector notifications as scenarios complete;
// cmd/sweep uses it for stderr progress lines. May be nil.
type Progress func(scenario Scenario, trialsDone int)

// Execute runs the sweep — the engine's one entry point — optionally
// resuming from a checkpoint. See the package comment for the
// determinism and allocation contracts. progress, when non-nil, is
// called from the collector as each scenario's last trial is
// aggregated. The crash/resume contract extends the
// worker-count-equivalence contract:
// restoring a checkpoint taken at any trial boundary and running the
// remaining trials produces a Result whose JSON is byte-identical to
// an uninterrupted run's, for any worker count on either side of the
// interruption. resume may be nil (fresh run); its identity must match
// cfg (same trials, seed, scale, findings, reservoir size, and
// scenario grid — everything that determines the math; workers,
// budgets, interrupts and checkpoint cadence are free to differ).
//
// Execute returns an error only for an empty grid, checkpoint
// validation/IO failures and injected kills (ErrKilled); budget-stopped
// and interrupted sweeps return a Partial Result with err == nil.
func Execute(cfg Config, resume *CheckpointState, progress Progress) (*Result, error) {
	if len(cfg.Scenarios) == 0 {
		return nil, errors.New("sweep: the grid has no scenarios (Config.Scenarios is empty)")
	}
	if err := checkConfigVariance(cfg.Variance, cfg.Scenarios); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	ident := checkpointIdentity(cfg)
	trials, scens := ident.Trials, ident.Scenarios
	jobs := len(scens) * trials

	runs := make([]scenarioRun, len(scens))
	for i, s := range scens {
		runs[i] = newScenarioRun(s, cfg)
	}

	c := newCollector(ident)
	if resume != nil {
		if err := validateCheckpoint(resume, ident); err != nil {
			return nil, err
		}
		if err := c.restore(resume); err != nil {
			return nil, err
		}
	}
	startJob := c.next

	// The run's job range: [startJob, endJob). A trial budget truncates
	// the range deterministically — the budgeted sweep is an exact
	// prefix of the full one, resumable to completion later.
	endJob := jobs
	if cfg.BudgetTrials > 0 {
		endJob = max(min(cfg.BudgetTrials, jobs), startJob)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, endJob-startJob)

	// stop drains the pool early: Interrupt and injected kills set it;
	// workers check it before picking up each trial.
	var stop atomic.Bool

	// Workers claim jobs one at a time in global order and take their
	// fleets from the share (share.go); a worker reuses its fleet via
	// Reset while the population is unchanged. Each trial runs under
	// the retry.go recover boundary.
	share := &fleetShare{cfg: &cfg, runs: runs, trials: trials, next: startJob, end: endJob}
	out := make(chan trialOut, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newTrialWorker(share)
			for !stop.Load() {
				if cfg.Interrupt != nil && cfg.Interrupt() {
					stop.Store(true)
					return
				}
				job, sh, ok := share.claim()
				if !ok {
					return
				}
				out <- w.runJob(job, sh)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// abort stops the pool and drains the channel so returning early
	// never strands a worker blocked on send.
	abort := func() {
		stop.Store(true)
		go func() {
			for range out {
			}
		}()
	}

	// Ordered collector: aggregate strictly in global job order so the
	// aggregation sequence — and every floating-point summary — is
	// independent of worker scheduling. Checkpoints are taken between
	// whole trials at the watermark, so their state is always a
	// contiguous prefix of the sweep.
	pending := make(map[int]trialOut, workers)
	ckptOrdinal := 0
	// Checkpoint capture serves two consumers on the same cadence: the
	// durable file behind -checkpoint/-resume, and the OnCheckpoint
	// observer behind sweepd's in-flight partial results. Either alone
	// enables the capture.
	capturing := cfg.CheckpointPath != "" || cfg.OnCheckpoint != nil
	saveCheckpoint := func() error {
		if !capturing {
			return nil
		}
		st := c.state()
		if cfg.OnCheckpoint != nil {
			cfg.OnCheckpoint(st)
		}
		if cfg.CheckpointPath == "" {
			return nil
		}
		ckptOrdinal++
		var wrap func(w io.Writer) io.Writer
		if cfg.Hooks != nil && cfg.Hooks.CheckpointWriter != nil {
			ord := ckptOrdinal
			wrap = func(w io.Writer) io.Writer { return cfg.Hooks.CheckpointWriter(ord, w) }
		}
		return st.Save(cfg.CheckpointPath, wrap)
	}
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 64
	}
	lastCkpt := startJob
	for o := range out {
		pending[o.job] = o
		for {
			po, ok := pending[c.next]
			if !ok {
				break
			}
			delete(pending, c.next)
			c.push(po)
			if progress != nil && c.next%trials == 0 {
				progress(scens[c.next/trials-1], trials)
			}
			if cfg.Hooks != nil && cfg.Hooks.KillAfterJob != nil && cfg.Hooks.KillAfterJob(c.next-1) {
				// Simulated crash: no final checkpoint, no Result. The
				// last periodic checkpoint is all recovery gets.
				abort()
				return nil, ErrKilled
			}
			// The cadence is checked per aggregated trial, not per
			// arrival: when a slow trial releases a run of buffered
			// trials at once, the watermark still checkpoints at every
			// cadence boundary it crosses, so a crash never loses more
			// than CheckpointEvery aggregated trials. Trials still
			// buffered behind the watermark are not in any checkpoint:
			// see the package comment.
			if capturing && c.next-lastCkpt >= every && c.next < endJob {
				if err := saveCheckpoint(); err != nil {
					abort()
					return nil, err
				}
				lastCkpt = c.next
			}
		}
	}

	// Drained: either the range completed or Interrupt stopped the pool
	// mid-range. Out-of-order stragglers past a stopped watermark
	// are discarded — resume recomputes them.
	if err := saveCheckpoint(); err != nil {
		return nil, err
	}
	return c.result(), nil
}
