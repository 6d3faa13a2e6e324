// Quickstart: build a small fleet, simulate its 44-month failure
// history, and print the AFR breakdown by system class and failure type
// — the reproduction's one-screen "Figure 4".
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"storagesubsys/internal/core"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/report"
	"storagesubsys/internal/sim"
)

func main() {
	// A 2% scale fleet: ~780 systems, ~36,000 disks.
	f := fleet.BuildDefault(0.02, 1)
	res := sim.Run(f, failmodel.DefaultParams(), 2)
	ds := core.NewDataset(f, res.Events)

	visible := 0
	for _, e := range res.Events {
		if e.Visible() {
			visible++
		}
	}
	fmt.Printf("simulated %d systems / %d disks over 44 months: %d storage subsystem failures\n\n",
		len(f.Systems), f.NumDisks(), visible)

	headers := []string{"Class", "Disk", "Interconnect", "Protocol", "Performance", "Total AFR"}
	var rows [][]string
	for _, b := range ds.AFRByClass(core.Filter{ExcludeFamily: fleet.ProblemFamily}) {
		rows = append(rows, []string{
			b.Label,
			report.Pct(b.AFR[failmodel.DiskFailure]),
			report.Pct(b.AFR[failmodel.PhysicalInterconnect]),
			report.Pct(b.AFR[failmodel.Protocol]),
			report.Pct(b.AFR[failmodel.Performance]),
			report.Pct(b.TotalAFR()),
		})
	}
	report.Table(os.Stdout, headers, rows)

	fmt.Println("\nDisks are not the dominant contributor: compare the disk and")
	fmt.Println("interconnect columns for the primary (low/mid/high-end) classes.")
}
