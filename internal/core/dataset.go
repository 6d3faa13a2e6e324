// Package core implements the paper's analysis methodology — the actual
// contribution of the FAST '08 study. Given a fleet topology and a
// failure event stream (from the simulator or mined from raw support
// logs), it computes:
//
//   - annualized failure rates (AFR) with exact per-disk-year exposure
//     accounting, broken down by failure type, system class, disk model,
//     shelf enclosure model, and network redundancy configuration
//     (Figures 4–7);
//   - time-between-failure distributions per shelf enclosure and per
//     RAID group, with duplicate filtering and candidate-distribution
//     fitting (Figure 9);
//   - the failure-independence analysis comparing empirical P(2)
//     against the theoretical P(2) = P(1)^2/2 under independence
//     (Figure 10);
//   - the paper's Findings 1–11 as programmatic checks.
package core

import (
	"sort"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// Dataset binds a failure event stream to the fleet topology it was
// observed on. All analyses hang off Dataset.
type Dataset struct {
	Fleet  *fleet.Fleet
	Events []failmodel.Event // sorted by occurrence time
}

// NewDataset builds a dataset, sorting the events by occurrence time if
// needed. The event slice is retained (not copied).
func NewDataset(f *fleet.Fleet, events []failmodel.Event) *Dataset {
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].Time < events[j].Time }) {
		sort.Slice(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	}
	return &Dataset{Fleet: f, Events: events}
}

// Filter selects which systems an analysis sees. Its events are the
// visible ones: faults multipathing absorbs are not storage subsystem
// failures, which are "errors exposed by storage subsystems to the
// rest of the system".
type Filter struct {
	// ExcludeFamily drops events from (and exposure of) systems using
	// the given disk family — the paper's Figure 4(b) excludes the
	// problematic "Disk H" family. Empty means no exclusion.
	ExcludeFamily string
	// System restricts to systems for which the predicate holds (nil
	// means all systems).
	System func(*fleet.System) bool
}

// admitsSystem reports whether a system's events and exposure count.
func (fl Filter) admitsSystem(s *fleet.System) bool {
	if fl.ExcludeFamily != "" && s.DiskModel.Family == fl.ExcludeFamily {
		return false
	}
	if fl.System != nil && !fl.System(s) {
		return false
	}
	return true
}

// selectEvents returns the filtered events. Matches are counted first
// so the result is allocated exactly once at its final size, instead of
// growing a worst-case copy through repeated append doublings.
func (ds *Dataset) selectEvents(fl Filter) []failmodel.Event {
	admits := func(e failmodel.Event) bool {
		return e.Visible() && fl.admitsSystem(&ds.Fleet.Systems[e.System])
	}
	n := 0
	for _, e := range ds.Events {
		if admits(e) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]failmodel.Event, 0, n)
	for _, e := range ds.Events {
		if admits(e) {
			out = append(out, e)
		}
	}
	return out
}
