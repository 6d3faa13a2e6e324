// Command sweep runs the Monte-Carlo sweep engine: T independent
// failure-history trials per scenario over a declarative scenario
// grid, reporting every paper-finding statistic's single-seed point
// estimate, trial mean with a 95% confidence interval, and spread
// quantiles — the uncertainty a single cmd/reproduce run cannot show.
//
// Usage:
//
//	sweep [-trials 20] [-grid default|burst|mine|ops|scale|smoke|...]
//	      [-grid-file scenario.json]
//	      [-scale 0.25] [-seed 42] [-workers N] [-findings] [-json] [-check]
//	      [-checkpoint sweep.ckpt] [-checkpoint-every 64] [-resume]
//	      [-budget N] [-max-wall 30m] [-deltas]
//	sweep validate scenario.json...
//
// Every grid is a declarative scenario file (the validated JSON format
// documented in SCENARIOS.md: run parameters, the scenario grid, and
// optional assertion bands cmd/expreport joins against the result).
// -grid NAME selects a built-in grid: the committed file
// examples/scenarios/NAME.json, embedded in the binary, so it means
// exactly -grid-file examples/scenarios/NAME.json. Only those names
// resolve; any other file loads with -grid-file. A scenario file's
// trials/seed/scale/findings/deltas apply unless the
// corresponding flag is set explicitly: explicit flag > scenario file >
// default. With -checkpoint, the scenario file's content digest becomes
// part of the checkpoint identity, so -resume refuses a checkpoint
// taken under a different scenario file.
//
// "sweep validate" parses and validates each named scenario file
// without running anything, printing one line per file; malformed
// files produce a one-line positional error and a non-zero exit.
//
// Each fleet key is built once per run of scenarios sharing it, its
// topology shared by every worker and rolled back between trials, and
// trials are claimed in order by a worker pool with recycled simulation
// scratch, so a steady-state trial costs one re-simulation plus the
// analyses. -workers only changes wall-clock: the output (tables and
// -json bytes alike) is byte-identical for every worker count, and a
// fixed (-trials, -grid, -scale, -seed) tuple fully determines it.
// Trial 0 of every scenario replays the exact seeds cmd/reproduce
// uses, so the reported spread always brackets the standalone point
// estimate; -check verifies that, and additionally reruns each
// scenario's trial 0 from scratch (fresh fleet, no recycled buffers)
// demanding bit-identical metrics. -findings adds the Findings 1-11
// pass count per trial at roughly double the analysis cost. Progress
// goes to stderr; results to stdout.
//
// Variance reduction: -deltas contrasts every non-baseline scenario
// with the baseline on common random numbers, reporting the paired
// mean difference with its (much tighter) 95% CI per metric. With it
// unset, output bytes are identical to builds without it.
//
// Fault tolerance: -checkpoint periodically persists the aggregation
// state (digest-protected; the previous checkpoint is kept as
// <path>.prev) and -resume restores it after a crash or a
// budget-stopped run — the completed JSON is byte-identical to an
// uninterrupted run's, for any worker count on either side of the
// interruption. -budget stops gracefully after that many trials in
// global order (a deterministic prefix); -max-wall stops when the
// wall-clock budget elapses (the command's clock, polled by the engine
// through its Interrupt seam). Both mark the result PARTIAL with
// per-scenario completed-trial counts and leave a resumable
// checkpoint. Trials that panic are quarantined and deterministically
// retried, up to twice (failures are recorded in the result, never
// fatal to the sweep).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"time"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process globals: flags parse from args on a
// local FlagSet, output and progress go to the given writers, and the
// exit code is returned instead of passed to os.Exit — so tests can
// table-drive flag validation, the validate subcommand, and whole tiny
// sweeps in-process. Exit codes: 0 success (including -h), 2 usage
// errors (and invalid validate usage), 1 runtime failures (and, for
// the validate subcommand, invalid scenario files).
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("sweep", flag.ContinueOnError)
	flags.SetOutput(stderr)
	defaults := sweep.DefaultConfig()
	trials := flags.Int("trials", defaults.Trials, "Monte-Carlo trials per scenario")
	grid := flags.String("grid", "default", "built-in scenario grid, examples/scenarios/NAME.json: "+strings.Join(scenario.BuiltinNames(), ", ")+" (other files use -grid-file)")
	gridFile := flags.String("grid-file", "", "declarative scenario file (validated JSON; see SCENARIOS.md and examples/scenarios/)")
	scale := flags.Float64("scale", defaults.Scale, "base population scale relative to the paper's 39,000 systems (scenarios may override)")
	seed := flags.Int64("seed", defaults.Seed, "sweep seed; fully determines every fleet and trial")
	workers := flags.Int("workers", 0, "trial worker goroutines (0 = one per CPU; every count yields byte-identical output)")
	findings := flags.Bool("findings", false, "also evaluate the paper's Findings 1-11 per trial (roughly doubles analysis cost)")
	jsonOut := flags.Bool("json", false, "emit machine-readable JSON instead of tables")
	check := flags.Bool("check", false, "self-check: rerun each scenario's trial 0 from scratch and require bit-identical metrics inside the sweep spread")
	checkpoint := flags.String("checkpoint", "", "checkpoint file: periodically persist aggregation state for -resume")
	every := flags.Int("checkpoint-every", 0, "checkpoint cadence in completed trials (0 = 64; requires -checkpoint)")
	resume := flags.Bool("resume", false, "resume from the -checkpoint file (falls back to <path>.prev if the primary is corrupt)")
	budget := flags.Int("budget", 0, "stop gracefully after this many trials in global order (0 = no budget; result marked partial, resumable)")
	maxWall := flags.Duration("max-wall", 0, "wall-clock budget, e.g. 30m (0 = none; result marked partial, resumable)")
	deltas := flags.Bool("deltas", false, "accumulate CRN paired deltas of every non-baseline scenario against the baseline (adds a deltas section to tables and JSON)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "sweep: "+format+"\n", a...)
		return code
	}
	// engine drops the "sweep: " an engine error already starts with,
	// since fail adds its own.
	engine := func(err error) string { return strings.TrimPrefix(err.Error(), "sweep: ") }

	if flags.NArg() > 0 {
		if flags.Arg(0) == "validate" {
			return runValidate(flags.Args()[1:], stdout, stderr)
		}
		return fail(2, "unexpected argument %q (sweep takes flags, or the \"validate\" subcommand; see -h)", flags.Arg(0))
	}
	if *trials < 1 {
		return fail(2, "-trials must be at least 1")
	}
	if *scale <= 0 || *scale > 1.5 {
		return fail(2, "-scale must be in (0, 1.5]")
	}
	if *budget < 0 {
		return fail(2, "-budget must be >= 0")
	}
	if *maxWall < 0 {
		return fail(2, "-max-wall must be >= 0")
	}
	if *every < 0 {
		return fail(2, "-checkpoint-every must be >= 0")
	}
	if *checkpoint == "" {
		if *resume {
			return fail(2, "-resume requires -checkpoint to name the file to resume from")
		}
		if *every > 0 {
			return fail(2, "-checkpoint-every requires -checkpoint")
		}
	}
	set := map[string]bool{}
	flags.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["grid"] && set["grid-file"] {
		return fail(2, "-grid and -grid-file are mutually exclusive (one grid per sweep)")
	}

	cfg := sweep.Config{
		Trials:          *trials,
		Seed:            *seed,
		Scale:           *scale,
		Workers:         *workers,
		Findings:        *findings,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *every,
		BudgetTrials:    *budget,
		Deltas:          *deltas,
	}
	var spec *scenario.Spec
	var err error
	if *gridFile != "" {
		spec, err = scenario.Load(*gridFile)
	} else {
		spec, err = scenario.Builtin(*grid)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Spec run parameters apply where the flag was not explicitly set:
	// explicit flag > scenario file > default.
	cfg = spec.Config(cfg)
	if set["trials"] {
		cfg.Trials = *trials
	}
	if set["seed"] {
		cfg.Seed = *seed
	}
	if set["scale"] {
		cfg.Scale = *scale
	}
	if set["findings"] {
		cfg.Findings = *findings
	}
	if set["deltas"] {
		cfg.Deltas = *deltas
	}
	if err := sweep.CheckResolved(cfg); err != nil {
		return fail(2, "%v", err)
	}

	var st *sweep.CheckpointState
	var src string
	if *resume {
		st, src, err = sweep.RecoverCheckpoint(*checkpoint)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return fail(2, "-resume: no checkpoint at %s (run with -checkpoint first, or drop -resume to start fresh)", *checkpoint)
			}
			return fail(2, "-resume: %s", engine(err))
		}
	}

	if *maxWall > 0 {
		// The deadline only decides when the sweep stops; the completed
		// prefix it leaves is exact, so a resume finishes the same bytes.
		deadline := time.Now().Add(*maxWall)
		cfg.Interrupt = func() bool { return !time.Now().Before(deadline) }
	}

	fmt.Fprintf(stderr, "sweep: %d scenarios x %d trials at base scale %g (seed %d)\n",
		len(cfg.Scenarios), cfg.Trials, cfg.Scale, cfg.Seed)
	res, err := sweep.Execute(cfg, st, func(s sweep.Scenario, done int) {
		fmt.Fprintf(stderr, "sweep: scenario %q complete (%d trials)\n", s.Name, done)
	})
	if err != nil {
		return fail(1, "%s", engine(err))
	}
	if st != nil {
		// Only Execute validates a checkpoint against the run, so the
		// resume is announced once it has been accepted.
		fmt.Fprintf(stderr, "sweep: resumed from %s at trial %d of %d\n",
			src, st.NextJob, len(cfg.Scenarios)*cfg.Trials)
	}
	if res.Partial {
		fmt.Fprintln(stderr, "sweep: PARTIAL result (budget or deadline); resume with -resume to complete")
	}
	for _, f := range res.Failures {
		if f.Recovered {
			fmt.Fprintf(stderr, "sweep: WARNING: scenario %q trial %d panicked and was retried successfully (%d attempts): %s\n",
				f.Scenario, f.Trial, f.Attempts, f.Panic)
		} else {
			fmt.Fprintf(stderr, "sweep: WARNING: scenario %q trial %d failed permanently after %d attempts: %s\n",
				f.Scenario, f.Trial, f.Attempts, f.Panic)
		}
	}

	if *jsonOut {
		if err := res.WriteJSON(stdout); err != nil {
			return fail(1, "writing JSON: %v", err)
		}
	} else {
		res.Render(stdout)
	}

	if *check {
		if err := res.Check(cfg); err != nil {
			return fail(1, "self-check FAILED: %v", err)
		}
		fmt.Fprintln(stderr, "sweep: self-check passed: single-seed reruns match trial 0 bit-for-bit and fall inside the sweep spread")
	}
	return 0
}

// runValidate implements "sweep validate scenario.json...": parse and
// validate each named scenario file without running anything. One line
// per file on stdout; any failure makes the exit code 1 (2 when no
// file was named at all).
func runValidate(paths []string, stdout, stderr io.Writer) int {
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "sweep: validate needs at least one scenario file (usage: sweep validate scenario.json...)")
		return 2
	}
	code := 0
	for _, path := range paths {
		spec, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "sweep: %s: OK — %q, %d scenarios, %d assertions, digest %s\n",
			path, spec.Name, len(spec.Scenarios), len(spec.Assertions), spec.Digest()[:12])
	}
	return code
}
