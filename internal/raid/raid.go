// Package raid models the resiliency mechanism sitting on top of the
// storage subsystem: RAID4/RAID6 group state machines, the classic
// analytic MTTDL under the independent-exponential assumption the paper
// revisits ("some researchers have assumed a constant failure rate ...
// and that failures are independent, when calculating the expected time
// to failure for a RAID [Patterson et al.]"), and a replay engine that
// measures data-loss exposure under an arbitrary — e.g. correlated and
// bursty — failure event stream.
//
// The package quantifies the paper's central implication: resiliency
// mechanisms designed under the independence assumption underestimate
// risk when failures are bursty (Findings 8, 10, 11).
package raid

import (
	"math"
	"sort"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// AnalyticMTTDL returns the classic mean time to data loss, in years,
// for a group of n disks tolerating p concurrent failures (p=1 for
// RAID4, p=2 for RAID6), with per-disk MTTF (years) and repair time MTTR
// (years), assuming independent exponential failures:
//
//	RAID4: MTTF^2 / (n*(n-1)*MTTR)
//	RAID6: MTTF^3 / (n*(n-1)*(n-2)*MTTR^2)
func AnalyticMTTDL(n int, rt fleet.RAIDType, mttfYears, mttrYears float64) float64 {
	if n < 2 || mttfYears <= 0 || mttrYears <= 0 {
		return math.NaN()
	}
	nf := float64(n)
	if rt == fleet.RAID6 {
		if n < 3 {
			return math.NaN()
		}
		return mttfYears * mttfYears * mttfYears /
			(nf * (nf - 1) * (nf - 2) * mttrYears * mttrYears)
	}
	return mttfYears * mttfYears / (nf * (nf - 1) * mttrYears)
}

// GroupEvent is a failure replayed into a group state machine.
type GroupEvent struct {
	Time simtime.Seconds
	Disk int
}

// LossRecord describes one data-loss incident found by replay.
type LossRecord struct {
	Group      int
	Time       simtime.Seconds
	Concurrent int // failed/rebuilding disks at the moment of loss
}

// ReplayResult summarizes a replay over many groups.
type ReplayResult struct {
	Groups       int
	GroupYears   float64
	Losses       []LossRecord
	DoubleEvents int // times a group had >= 2 concurrent unavailable disks
}

// LossRatePerGroupYear returns observed data-loss incidents per
// group-year.
func (r ReplayResult) LossRatePerGroupYear() float64 {
	if r.GroupYears <= 0 {
		return math.NaN()
	}
	return float64(len(r.Losses)) / r.GroupYears
}

// Replay runs every RAID group of the fleet through its failure events
// and reports data-loss incidents: moments when the number of
// concurrently unavailable disks exceeds the group's parity count.
// A disk is unavailable from its failure until repairYears later
// (replacement + reconstruction). Any storage subsystem failure type
// makes the disk unavailable — the paper's point that RAID must absorb
// interconnect/protocol/performance failures too, not just disk
// failures. Pass a filter to restrict the event types replayed.
func Replay(f *fleet.Fleet, events []failmodel.Event, repairYears float64, include func(failmodel.Event) bool) ReplayResult {
	repair := simtime.YearsToSeconds(repairYears)
	byGroup := make(map[int][]GroupEvent)
	for _, e := range events {
		if e.Group < 0 || !e.Visible() {
			continue
		}
		if include != nil && !include(e) {
			continue
		}
		g := int(e.Group)
		byGroup[g] = append(byGroup[g], GroupEvent{Time: e.Time, Disk: int(e.Disk)})
	}

	res := ReplayResult{Groups: len(f.Groups)}
	for i := range f.Groups {
		sys := &f.Systems[f.Groups[i].System]
		res.GroupYears += sys.ObservedYears()
	}

	for groupID, evs := range byGroup {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
		parity := f.Groups[groupID].Type.ParityDisks()
		// Sweep: track unavailable-until per disk.
		down := make(map[int]simtime.Seconds)
		lost := false
		for _, ev := range evs {
			// Expire repairs.
			for d, until := range down {
				if until <= ev.Time {
					delete(down, d)
				}
			}
			down[ev.Disk] = ev.Time + repair
			if len(down) >= 2 {
				res.DoubleEvents++
			}
			if len(down) > parity && !lost {
				res.Losses = append(res.Losses, LossRecord{
					Group:      groupID,
					Time:       ev.Time,
					Concurrent: len(down),
				})
				lost = true // count at most one loss per group, like a real array
			}
		}
	}
	sort.Slice(res.Losses, func(i, j int) bool {
		if res.Losses[i].Time != res.Losses[j].Time {
			return res.Losses[i].Time < res.Losses[j].Time
		}
		return res.Losses[i].Group < res.Losses[j].Group // total order for same-time losses
	})
	return res
}

// IndependentBaseline synthesizes an event stream with the same per-disk
// marginal failure rates as the observed stream but independent
// exponential arrivals, then replays it. Comparing Replay(observed) with
// IndependentBaseline quantifies how much correlation/burstiness costs:
// the paper's motivation for revisiting RAID reliability models.
//
// The synthetic stream preserves each disk's observed event count in
// expectation by redistributing the observed per-group event totals
// uniformly over group members and over each system's observed window.
func IndependentBaseline(f *fleet.Fleet, events []failmodel.Event, repairYears float64, include func(failmodel.Event) bool, seed int64) ReplayResult {
	// Count observed events per group.
	perGroup := make(map[int]int)
	for _, e := range events {
		if e.Group < 0 || !e.Visible() {
			continue
		}
		if include != nil && !include(e) {
			continue
		}
		perGroup[int(e.Group)]++
	}
	// Synthesize in group-ID order, not map order: every draw consumes
	// RNG state, so iteration order would otherwise change the synthetic
	// stream (and the ablation's counts) from run to run.
	groupIDs := make([]int, 0, len(perGroup))
	for id := range perGroup {
		groupIDs = append(groupIDs, id)
	}
	sort.Ints(groupIDs)
	rng := stats.NewRNG(seed)
	var synth []failmodel.Event
	for _, groupID := range groupIDs {
		n := perGroup[groupID]
		g := &f.Groups[groupID]
		sys := &f.Systems[g.System]
		span := simtime.StudyDuration - sys.Install
		members := f.Members[g.Members.Lo:g.Members.Hi]
		if span <= 0 || len(members) == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			t := sys.Install + simtime.Seconds(rng.Float64()*float64(span))
			disk := int(members[rng.Intn(len(members))])
			synth = append(synth, failmodel.Event{
				Time:     t,
				Detected: simtime.NextScrub(t),
				Type:     failmodel.DiskFailure,
				Cause:    failmodel.CauseDiskMedia,
				Disk:     int32(disk),
				Shelf:    f.Disk(disk).Shelf,
				System:   g.System,
				Group:    int32(groupID),
			})
		}
	}
	sort.Slice(synth, func(i, j int) bool { return synth[i].Time < synth[j].Time })
	return Replay(f, synth, repairYears, nil)
}
