// Package experiments orchestrates the end-to-end reproduction of every
// table and figure in the paper's evaluation: build the fleet, simulate
// the failure history, optionally run it through the AutoSupport
// log-mining pipeline, and render each artifact. cmd/reproduce and the
// repository benchmarks both drive this package; EXPERIMENTS.md records
// its output against the paper.
package experiments

import (
	"fmt"
	"io"

	"storagesubsys/internal/autosupport"
	"storagesubsys/internal/core"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

// Config controls a reproduction run.
type Config struct {
	// Scale is the population scale relative to the paper's 39,000
	// systems; 1.0 rebuilds the full fleet.
	Scale float64
	// Seed determines the fleet and failure history.
	Seed int64
	// Mine recovers events by mining the collected AutoSupport log
	// messages (classified by tag, disk serials resolved; no text is
	// rendered or parsed) instead of taking them from the simulator.
	// Costs extra time and memory at large scales.
	Mine bool
	// Params overrides the default generative calibration (nil = default).
	Params *failmodel.Params
}

// DefaultConfig is the configuration cmd/reproduce uses unless told
// otherwise: quarter scale keeps every statistic stable while running
// in well under a minute.
func DefaultConfig() Config {
	return Config{Scale: 0.25, Seed: 42, Mine: false}
}

// Env is a prepared reproduction environment.
type Env struct {
	Config  Config
	Fleet   *fleet.Fleet
	Params  *failmodel.Params
	Events  []failmodel.Event
	Dataset *core.Dataset
	// MinedDropped counts log records the mining pipeline could not
	// resolve (0 unless Config.Mine).
	MinedDropped int
}

// Setup builds the fleet, runs the simulation, and (optionally) the
// log-mining pipeline. It is the single-run form of RunTrial: the
// fleet is built fresh from cfg.Seed and the failure history is seeded
// with the canonical cfg.Seed+1 derivation.
func Setup(cfg Config) *Env {
	f := fleet.BuildDefault(cfg.Scale, cfg.Seed)
	return RunTrial(cfg, f, cfg.Seed+1, nil)
}

// RunTrial runs the simulate → (optionally mine) → analyze stages of
// one reproduction trial over a prepared fleet, seeding the failure
// history with simSeed. Both the single-run path (Setup, and through
// it cmd/reproduce) and the Monte-Carlo sweep engine (internal/sweep)
// share this one code path, so a sweep trial is the exact computation
// a standalone reproduction performs.
//
// The fleet must be freshly built or fleet.Reset to its build
// checkpoint — RunTrial mutates it (disk removals and replacement
// installs). scratch may be nil for one-shot runs; a sweep passes a
// per-worker sim.Scratch so repeated trials recycle the simulation
// buffers (see sim.Scratch for the aliasing contract).
//
//detlint:hotpath
func RunTrial(cfg Config, f *fleet.Fleet, simSeed int64, scratch *sim.Scratch) *Env {
	params := cfg.Params
	if params == nil {
		params = failmodel.DefaultParams()
	}
	res := sim.RunOpts(f, params, simSeed, scratch)
	//detlint:ignore hotalloc the Env is the trial's output envelope; one allocation per trial, retained by the caller
	env := &Env{Config: cfg, Fleet: f, Params: params}
	if cfg.Mine {
		db := autosupport.Collect(f, res.Events)
		events, dropped := db.MineEvents()
		env.Events = events
		env.MinedDropped = dropped
	} else {
		env.Events = res.Events
	}
	env.Dataset = core.NewDataset(f, env.Events)
	return env
}

// Experiment names accepted by Run.
var Names = []string{
	"table1", "fig4", "fig5", "fig6", "fig7", "fig9", "fig10",
	"findings", "span", "mttdl", "replacement",
}

// Run executes one named experiment, writing its rendering to w.
func (env *Env) Run(name string, w io.Writer) error {
	switch name {
	case "table1":
		env.Table1(w)
	case "fig4":
		env.Fig4(w)
	case "fig5":
		env.Fig5(w)
	case "fig6":
		env.Fig6(w)
	case "fig7":
		env.Fig7(w)
	case "fig9":
		env.Fig9(w)
	case "fig10":
		env.Fig10(w)
	case "findings":
		env.Findings(w)
	case "span":
		env.SpanAblation(w)
	case "mttdl":
		env.MTTDL(w)
	case "replacement":
		env.Replacement(w)
	default:
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names)
	}
	return nil
}

// RunAll executes every experiment in order.
func (env *Env) RunAll(w io.Writer) {
	for _, name := range Names {
		fmt.Fprintf(w, "\n================ %s ================\n", name)
		if err := env.Run(name, w); err != nil {
			fmt.Fprintln(w, "error:", err)
		}
	}
}
