// Command expreport renders EXPERIMENTS.md: the paper-vs-spread
// report joining the paper's published values (internal/paperref)
// against a Monte-Carlo sweep's confidence intervals and quantiles
// (internal/sweep), one section per paper finding with a
// within/outside-CI verdict per target.
//
// Usage:
//
//	expreport [-o EXPERIMENTS.md] [-in sweep.json] [-grid-file scenario.json]
//	          [-trials 24] [-scale 0.10] [-seed 42] [-grid ops] [-workers N]
//
// With no flags it runs the canonical configuration behind the
// committed EXPERIMENTS.md (expreport.CanonicalConfig: the ops grid —
// baseline plus install-window skew, churn, repair-lag and shelf-mix
// scenarios — at 10% scale, 24 trials each) and writes the report to
// stdout. The output is byte-deterministic: a pure function of
// (-trials, -scale, -seed, -grid), independent of -workers, which is
// what lets CI's expreport-smoke job regenerate the file and fail on
// `git diff --exit-code` when the committed copy is stale.
//
// -in joins an existing `cmd/sweep -json` result instead of running
// the sweep, so expensive sweeps (full scale, high trial counts) can
// be rendered without recomputation. -o writes atomically-ish to a
// file instead of stdout.
//
// -grid NAME selects a built-in grid, the committed file
// examples/scenarios/NAME.json embedded in the binary; it means exactly
// -grid-file examples/scenarios/NAME.json, as in cmd/sweep.
// -grid-file names any declarative scenario file (SCENARIOS.md). When
// the sweep runs here, the file supplies the grid and run parameters
// exactly as in cmd/sweep (explicit flag > scenario file > default).
// Either way, the file's user-authored assertion bands are joined
// against the result and rendered as an extra verdict section — so
// `-in sweep.json -grid-file scenario.json` re-judges an existing
// sweep against the file's assertions without recomputation.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"storagesubsys/internal/expreport"
	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process globals, for table-driven tests of
// flag validation and whole tiny report runs. Exit codes: 0 success
// (including -h), 2 flag-parse errors, 1 everything else — expreport's
// long-standing "fatal is always 1" convention for semantic errors.
func run(args []string, stdout, stderr io.Writer) int {
	canon := expreport.CanonicalConfig()
	flags := flag.NewFlagSet("expreport", flag.ContinueOnError)
	flags.SetOutput(stderr)
	out := flags.String("o", "", "output file (default stdout)")
	in := flags.String("in", "", "join an existing cmd/sweep -json result instead of running the sweep (combine with -grid-file to also judge that file's assertion bands)")
	trials := flags.Int("trials", canon.Trials, "Monte-Carlo trials per scenario")
	scale := flags.Float64("scale", canon.Scale, "base population scale")
	seed := flags.Int64("seed", canon.Seed, "sweep seed")
	grid := flags.String("grid", "ops", "built-in scenario grid, examples/scenarios/NAME.json (see cmd/sweep)")
	gridFile := flags.String("grid-file", "", "declarative scenario file: grid, run parameters, and assertion bands to judge (see SCENARIOS.md)")
	workers := flags.Int("workers", 0, "trial worker goroutines (0 = one per CPU; output is identical for every count)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "expreport:", err)
		return 1
	}

	if flags.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q (expreport takes flags only; see -h)", flags.Arg(0)))
	}
	if *trials < 1 {
		return fail(fmt.Errorf("-trials must be at least 1"))
	}
	if *scale <= 0 || *scale > 1.5 {
		return fail(fmt.Errorf("-scale must be in (0, 1.5]"))
	}

	set := map[string]bool{}
	flags.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["grid"] && set["grid-file"] {
		return fail(fmt.Errorf("-grid and -grid-file are mutually exclusive (one grid per sweep)"))
	}

	// With -in and no -grid-file there is no grid to resolve: the result
	// carries its own scenarios.
	var spec *scenario.Spec
	var err error
	if *gridFile != "" {
		spec, err = scenario.Load(*gridFile)
	} else if *in == "" {
		spec, err = scenario.Builtin(*grid)
	}
	if err != nil {
		return fail(err)
	}

	var res *sweep.Result
	if *in != "" {
		// -in renders an already-computed sweep: its configuration is
		// whatever the JSON was swept with, so combining it with
		// sweep-config flags would silently drop them — reject instead.
		// -grid-file is the exception: with -in it only contributes its
		// assertion bands, which join any result.
		conflicting := map[string]bool{"trials": true, "scale": true, "seed": true, "grid": true, "workers": true}
		var conflict error
		flags.Visit(func(f *flag.Flag) {
			if conflicting[f.Name] && conflict == nil {
				conflict = fmt.Errorf("-%s conflicts with -in: the report renders the configuration recorded in %s", f.Name, *in)
			}
		})
		if conflict != nil {
			return fail(conflict)
		}
		r, err := loadResult(*in)
		if err != nil {
			return fail(err)
		}
		res = r
	} else {
		// Deltas are always accumulated here: the report's CRN contrast
		// tables need them, and they never change the summary numbers.
		cfg := sweep.Config{
			Trials:  *trials,
			Seed:    *seed,
			Scale:   *scale,
			Deltas:  true,
			Workers: *workers,
		}
		// Explicit flag > scenario file > canonical default, exactly as
		// in cmd/sweep.
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
		if cfg.Trials < 1 {
			return fail(fmt.Errorf("trial count %d must be at least 1 (scenario file and -trials combined)", cfg.Trials))
		}
		if cfg.Scale <= 0 || cfg.Scale > 1.5 {
			return fail(fmt.Errorf("base scale %g must be in (0, 1.5] (scenario file and -scale combined)", cfg.Scale))
		}
		fmt.Fprintf(stderr, "expreport: sweeping %d scenarios x %d trials at scale %.2f (seed %d)\n",
			len(cfg.Scenarios), cfg.Trials, cfg.Scale, cfg.Seed)
		res, err = sweep.Execute(cfg, nil, func(s sweep.Scenario, done int) {
			fmt.Fprintf(stderr, "expreport: scenario %q complete (%d trials)\n", s.Name, done)
		})
		if err != nil {
			return fail(err)
		}
	}

	w := stdout
	var f *os.File
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			return fail(err)
		}
		w = f
	}
	if err := expreport.RenderSpec(w, res, spec); err != nil {
		if f != nil {
			f.Close()
		}
		return fail(err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}

// loadResult parses a cmd/sweep -json file strictly: unknown fields,
// truncation, and structurally empty results all produce a one-line
// actionable error instead of a silent zero-value report.
func loadResult(path string) (*sweep.Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &sweep.Result{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(res); err != nil {
		return nil, fmt.Errorf("parsing %s: %v (is it a cmd/sweep -json result? it may be truncated or a different file)", path, err)
	}
	// A second document after the result means the file is not a single
	// sweep JSON object (e.g. concatenated logs).
	if dec.More() {
		return nil, fmt.Errorf("parsing %s: trailing data after the result object", path)
	}
	if res.Trials < 1 || len(res.Scenarios) == 0 {
		return nil, fmt.Errorf("%s holds no sweep data (%d trials, %d scenarios); was the sweep run with -json?", path, res.Trials, len(res.Scenarios))
	}
	for _, ss := range res.Scenarios {
		if ss.Scenario.Name == "" {
			return nil, fmt.Errorf("%s has a scenario without a name; the file is damaged or not a sweep result", path)
		}
	}
	return res, nil
}
