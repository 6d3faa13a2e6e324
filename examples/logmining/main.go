// logmining: the Figure 3 pipeline on raw text. Renders a failure's
// layered log messages (FC -> SCSI -> RAID), then parses and classifies
// the text back into typed storage subsystem failures — including a
// multipath-recovered fault that must NOT be classified as a failure,
// and noise lines the parser must skip.
//
//	go run ./examples/logmining
package main

import (
	"fmt"
	"strings"

	"storagesubsys/internal/core"
	"storagesubsys/internal/eventlog"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

func main() {
	f := fleet.BuildDefault(0.01, 9)
	res := sim.Run(f, failmodel.DefaultParams(), 10)

	// Render one example chain per failure type, like the paper's Figure 3.
	seen := map[failmodel.FailureType]bool{}
	var raw strings.Builder
	for _, e := range res.Events {
		if seen[e.Type] && !e.Recovered {
			continue
		}
		if !seen[e.Type] || e.Recovered {
			for _, m := range eventlog.Emit(nil, e) {
				raw.WriteString(m.Line(f).Render())
				raw.WriteByte('\n')
			}
			seen[e.Type] = true
		}
		if len(seen) == len(failmodel.Types) {
			break
		}
	}
	// Interleave operational noise the classifier must ignore.
	raw.WriteString("Thu Mar 4 11:00:00 UTC 2004 [raid.scrub.start:info]: Weekly scrub started on volume vol0.\n")
	raw.WriteString("corrupted line that does not parse\n")

	fmt.Println("=== raw support log ===")
	fmt.Print(raw.String())

	msgs, malformed, err := eventlog.ParseLog(strings.NewReader(raw.String()))
	if err != nil {
		panic(err)
	}
	failures := eventlog.Classify(msgs)
	fmt.Printf("\n=== mining ===\nparsed %d messages (%d malformed skipped), classified %d subsystem failures:\n",
		len(msgs), malformed, len(failures))
	rv := eventlog.NewResolver(f)
	events, dropped := rv.ResolveAll(failures)
	for _, e := range events {
		fmt.Printf("  %-30s disk %s (model %s, system %d, shelf %d, RAID group %d)\n",
			e.Type, fleet.Serial(int(e.Disk)), f.Systems[e.System].DiskModel, e.System, e.Shelf, e.Group)
	}
	if dropped > 0 {
		fmt.Printf("  (%d unresolvable)\n", dropped)
	}

	// The mined events are analyzable exactly like simulator output.
	ds := core.NewDataset(f, events)
	fmt.Printf("\nmined dataset: %d events across %d systems — ready for core analyses\n",
		len(ds.Events), len(f.Systems))
}
