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
	"cmp"
	"slices"
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

// containerRuns is the event index behind Figures 9 and 10: the
// visible events of admitted systems, counting-sorted by container ID
// (shelf, or RAID group when scope is ByRAIDGroup; spare-disk events
// belong to no group and are left out). Container c's events are
// evs[runs[c]:runs[c+1]], in detection-time order. The counting sort
// keeps ds.Events order within a container before each run is sorted.
// The run sort must stay the unstable pdqsort sort.Slice also runs:
// the order of tied events decides the duplicate filter, and the
// golden outputs pin pdqsort's order.
func (ds *Dataset) containerRuns(scope Scope, fl Filter) (evs []failmodel.Event, runs []int32) {
	containers := len(ds.Fleet.Shelves)
	if scope == ByRAIDGroup {
		containers = len(ds.Fleet.Groups)
	}
	container := func(e *failmodel.Event) int {
		c := e.Shelf
		if scope == ByRAIDGroup {
			c = e.Group
		}
		if c < 0 || !e.Visible() || !fl.admitsSystem(&ds.Fleet.Systems[e.System]) {
			return -1
		}
		return int(c)
	}
	// Container c's count goes to runs[c+2]; after the prefix sum
	// runs[c+1] is c's start, and placing each event advances it to
	// c's end, which is c+1's start.
	runs = make([]int32, containers+2)
	for i := range ds.Events {
		if c := container(&ds.Events[i]); c >= 0 {
			runs[c+2]++
		}
	}
	for c := 2; c < len(runs); c++ {
		runs[c] += runs[c-1]
	}
	evs = make([]failmodel.Event, runs[len(runs)-1])
	for i := range ds.Events {
		if c := container(&ds.Events[i]); c >= 0 {
			evs[runs[c+1]] = ds.Events[i]
			runs[c+1]++
		}
	}
	runs = runs[:containers+1]
	for c := 0; c < containers; c++ {
		slices.SortFunc(evs[runs[c]:runs[c+1]], func(a, b failmodel.Event) int { return cmp.Compare(a.Detected, b.Detected) })
	}
	return evs, runs
}
