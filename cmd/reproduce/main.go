// Command reproduce regenerates every table and figure of the FAST '08
// storage subsystem failure study end to end: build the fleet, simulate
// the calibrated failure history, optionally mine it back out of the
// AutoSupport log messages, and render each artifact.
//
// Usage:
//
//	reproduce [-scale 0.25] [-seed 42] [-mine]
//	          [-exp all|table1|fig4|fig5|fig6|fig7|fig9|fig10|findings|span|mttdl|replacement]
//	          [-csv dir]
//
// At -scale 1.0 the full 39,000-system / ~1.8M-disk population is
// rebuilt; the default quarter scale reproduces every statistical
// conclusion in seconds. Fleet construction and simulation run on one
// core; cmd/sweep is the parallel surface, running independent trials
// side by side. -mine takes events from the AutoSupport mining
// pipeline (log messages classified by tag; no text is rendered or
// parsed) instead of the simulator. -csv additionally writes
// machine-readable figure data. For multi-trial runs with confidence
// intervals over a scenario grid, see cmd/sweep, which shares this
// command's exact per-trial code path (experiments.RunTrial).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"storagesubsys/internal/experiments"
)

func main() {
	cfg := experiments.DefaultConfig()
	flag.Float64Var(&cfg.Scale, "scale", cfg.Scale, "population scale relative to the paper's 39,000 systems")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "simulation seed")
	flag.BoolVar(&cfg.Mine, "mine", cfg.Mine, "recover events by mining the AutoSupport log messages (slower, exercises the classification pipeline)")
	exp := flag.String("exp", "all", "experiment to run: all, "+strings.Join(experiments.Names, ", "))
	csvDir := flag.String("csv", "", "also write machine-readable figure CSVs to this directory")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "reproduce: unexpected argument %q (reproduce takes flags only; see -h)\n", flag.Arg(0))
		os.Exit(2)
	}
	if cfg.Scale <= 0 || cfg.Scale > 1.5 {
		fmt.Fprintln(os.Stderr, "reproduce: -scale must be in (0, 1.5]")
		os.Exit(2)
	}

	fmt.Printf("building fleet and simulating 44 months at scale %.2f (seed %d, mine=%v)...\n",
		cfg.Scale, cfg.Seed, cfg.Mine)
	env := experiments.Setup(cfg)
	fmt.Printf("fleet: %d systems, %d shelves, %d disks ever installed, %d RAID groups; %d failure events\n",
		len(env.Fleet.Systems), len(env.Fleet.Shelves), env.Fleet.NumDisks(), len(env.Fleet.Groups), len(env.Events))
	if cfg.Mine {
		fmt.Printf("log mining: %d events classified from collected messages, %d unresolvable\n", len(env.Events), env.MinedDropped)
	}

	if *csvDir != "" {
		files, err := env.WriteCSVs(*csvDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce: writing CSVs:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d CSV files under %s\n", len(files), *csvDir)
	}

	if *exp == "all" {
		env.RunAll(os.Stdout)
		return
	}
	if err := env.Run(*exp, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
}
