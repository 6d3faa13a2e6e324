// Command analyze mines a raw log archive produced by cmd/fleetgen and
// runs the study's analyses over the recovered failure events — the
// paper's methodology operating purely on log text files.
//
// Usage:
//
//	analyze -logs /tmp/asup/logs [-scale 0.02] [-seed 42] [-exp afr|gaps|classify]
//
// The fleet topology is rebuilt deterministically from (scale, seed),
// which must match the fleetgen invocation; real deployments would load
// the snapshot JSON instead, but the serial-number join is identical.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"storagesubsys/internal/core"
	"storagesubsys/internal/eventlog"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/report"
	"storagesubsys/internal/sim"
)

func main() {
	logs := flag.String("logs", "", "directory of *.log files from fleetgen (required)")
	scale := flag.Float64("scale", 0.02, "fleet scale used by fleetgen")
	seed := flag.Int64("seed", 42, "fleet seed used by fleetgen")
	exp := flag.String("exp", "afr", "analysis: afr, gaps, classify")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "analyze: unexpected argument %q (analyze takes flags only; see -h)\n", flag.Arg(0))
		os.Exit(2)
	}
	if *logs == "" {
		fmt.Fprintln(os.Stderr, "analyze: -logs is required")
		os.Exit(2)
	}
	if *scale <= 0 || *scale > 1.5 {
		fmt.Fprintln(os.Stderr, "analyze: -scale must be in (0, 1.5]")
		os.Exit(2)
	}
	if err := run(os.Stdout, *logs, *scale, *seed, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, logDir string, scale float64, seed int64, exp string) error {
	paths, err := filepath.Glob(filepath.Join(logDir, "*.log"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no *.log files under %s", logDir)
	}
	sort.Strings(paths)

	// Rebuild the topology deterministically from (scale, seed). The
	// simulation is replayed (its events discarded) so the disk
	// population includes the replacement disks whose serials appear in
	// the logs; a real deployment would load the snapshot JSON instead,
	// but the serial-number join is identical.
	f := fleet.BuildDefault(scale, seed)
	sim.Run(f, failmodel.DefaultParams(), seed+1)
	rv := eventlog.NewResolver(f)

	var events []failmodel.Event
	var parsed, malformed, unresolved int
	for _, path := range paths {
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		msgs, bad, err := eventlog.ParseLog(file)
		file.Close()
		if err != nil {
			return err
		}
		parsed += len(msgs)
		malformed += bad
		failures := eventlog.Classify(msgs)
		es, dropped := rv.ResolveAll(failures)
		unresolved += dropped
		events = append(events, es...)
	}
	fmt.Fprintf(w, "parsed %d messages from %d files (%d malformed lines), classified %d failures (%d unresolved)\n",
		parsed, len(paths), malformed, len(events)+unresolved, unresolved)

	ds := core.NewDataset(f, events)
	switch exp {
	case "afr":
		headers := []string{"Class", "Disk", "Interconnect", "Protocol", "Performance", "Total"}
		var rows [][]string
		for _, b := range ds.AFRByClass(core.Filter{}) {
			rows = append(rows, []string{
				b.Label,
				report.Pct(b.AFR[failmodel.DiskFailure]),
				report.Pct(b.AFR[failmodel.PhysicalInterconnect]),
				report.Pct(b.AFR[failmodel.Protocol]),
				report.Pct(b.AFR[failmodel.Performance]),
				report.Pct(b.TotalAFR()),
			})
		}
		report.Table(w, headers, rows)
	case "gaps":
		for _, scope := range []core.Scope{core.ByShelf, core.ByRAIDGroup} {
			g := ds.Gaps(scope, core.Filter{})
			fmt.Fprintf(w, "per %s: %.0f%% of consecutive failures within 10^4 s (%d gaps, %d containers)\n",
				g.Scope, g.OverallFractionWithin(core.BurstThreshold)*100, g.Overall.Len(), g.Containers)
		}
	case "classify":
		counts := map[failmodel.FailureType]int{}
		for _, e := range events {
			counts[e.Type]++
		}
		for _, t := range failmodel.Types {
			fmt.Fprintf(w, "%-32s %d\n", t, counts[t])
		}
	default:
		return fmt.Errorf("unknown -exp %q (afr, gaps, classify)", exp)
	}
	return nil
}
