// Command fleetgen generates a synthetic AutoSupport archive on disk: a
// fleet of storage systems, their 44-month failure history, raw support
// logs (one text file per system), and one configuration snapshot per
// system (JSON). The snapshot is taken at the end of the system's last
// week with logged events, not at the end of the study: churn can
// replace disks after that week. cmd/analyze consumes the logs,
// demonstrating the mining path on files rather than in-memory
// structures.
//
// Usage:
//
//	fleetgen -out /tmp/asup [-scale 0.02] [-seed 42] [-max-systems 200]
//	fleetgen -build-only [-scale 1.0] [-seed 42]
//
// -build-only constructs the fleet topology, prints its population
// counts and its topology's size in bytes (Fleet.ApproxBytes), and
// exits without simulating or writing any files — the full-scale CI
// smoke uses it to assert that the paper's ~39,000-system population
// builds in well under a second with deterministic counts and size.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"storagesubsys/internal/autosupport"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

func main() {
	out := flag.String("out", "", "output directory (required unless -build-only)")
	scale := flag.Float64("scale", 0.02, "population scale relative to the paper's 39,000 systems")
	seed := flag.Int64("seed", 42, "simulation seed")
	maxSystems := flag.Int("max-systems", 0, "write at most this many systems' logs (0 = all)")
	buildOnly := flag.Bool("build-only", false, "build the fleet, print population counts and topology bytes, and exit")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "fleetgen: unexpected argument %q (fleetgen takes flags only; see -h)\n", flag.Arg(0))
		os.Exit(2)
	}
	if *scale <= 0 || *scale > 1.5 {
		fmt.Fprintln(os.Stderr, "fleetgen: -scale must be in (0, 1.5]")
		os.Exit(2)
	}
	if *maxSystems < 0 {
		fmt.Fprintln(os.Stderr, "fleetgen: -max-systems must be >= 0")
		os.Exit(2)
	}
	if *buildOnly {
		f := fleet.BuildDefault(*scale, *seed)
		fmt.Printf("fleet: %d systems, %d shelves, %d disks, %d RAID groups (scale %g, seed %d)\n",
			len(f.Systems), len(f.Shelves), f.NumDisks(), len(f.Groups), *scale, *seed)
		fmt.Printf("topology: %d bytes\n", f.ApproxBytes())
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "fleetgen: -out is required")
		os.Exit(2)
	}
	if err := run(os.Stdout, *out, *scale, *seed, *maxSystems); err != nil {
		fmt.Fprintln(os.Stderr, "fleetgen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, out string, scale float64, seed int64, maxSystems int) error {
	f := fleet.BuildDefault(scale, seed)
	res := sim.Run(f, failmodel.DefaultParams(), seed+1)
	db := autosupport.Collect(f, res.Events)

	logDir := filepath.Join(out, "logs")
	snapDir := filepath.Join(out, "snapshots")
	for _, dir := range []string{logDir, snapDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	written := 0
	for _, sysID := range db.Systems() {
		if maxSystems > 0 && written >= maxSystems {
			break
		}
		text := db.RenderSystemLog(sysID)
		if text == "" {
			continue
		}
		name := fmt.Sprintf("system-%06d.log", sysID)
		if err := os.WriteFile(filepath.Join(logDir, name), []byte(text), 0o644); err != nil {
			return err
		}
		// The snapshot is taken at the end of the system's last week with
		// logged events; disks replaced after that week do not appear.
		bundles := db.Bundles(sysID)
		snap := autosupport.TakeSnapshot(f, sysID, bundles[len(bundles)-1].Week)
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		snapName := fmt.Sprintf("system-%06d.json", sysID)
		if err := os.WriteFile(filepath.Join(snapDir, snapName), data, 0o644); err != nil {
			return err
		}
		written++
	}

	systems, bundles, messages := db.Stats()
	fmt.Fprintf(w, "fleet: %d systems (%d with events), %d disks, %d events\n",
		len(f.Systems), systems, f.NumDisks(), len(res.Events))
	fmt.Fprintf(w, "wrote %d system logs (%d weekly bundles, %d messages) under %s\n",
		written, bundles, messages, out)
	return nil
}
