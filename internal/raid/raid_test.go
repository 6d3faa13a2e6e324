package raid

import (
	"math"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/simtime"
)

func TestAnalyticMTTDLKnownValues(t *testing.T) {
	// 8 disks, MTTF 125y, MTTR 36h = 36/8760 years.
	mttr := 36.0 / 8760
	raid4 := AnalyticMTTDL(8, fleet.RAID4, 125, mttr)
	want4 := 125.0 * 125 / (8 * 7 * mttr)
	if math.Abs(raid4-want4)/want4 > 1e-12 {
		t.Errorf("RAID4 MTTDL %g, want %g", raid4, want4)
	}
	raid6 := AnalyticMTTDL(8, fleet.RAID6, 125, mttr)
	want6 := 125.0 * 125 * 125 / (8 * 7 * 6 * mttr * mttr)
	if math.Abs(raid6-want6)/want6 > 1e-12 {
		t.Errorf("RAID6 MTTDL %g, want %g", raid6, want6)
	}
	// RAID6 must dominate RAID4 by roughly MTTF/((n-2)MTTR).
	if raid6 <= raid4 {
		t.Error("RAID6 must beat RAID4")
	}
}

func TestAnalyticMTTDLInvalid(t *testing.T) {
	if !math.IsNaN(AnalyticMTTDL(1, fleet.RAID4, 100, 0.01)) {
		t.Error("n=1 should be NaN")
	}
	if !math.IsNaN(AnalyticMTTDL(2, fleet.RAID6, 100, 0.01)) {
		t.Error("RAID6 with n=2 should be NaN")
	}
	if !math.IsNaN(AnalyticMTTDL(8, fleet.RAID4, 0, 0.01)) {
		t.Error("zero MTTF should be NaN")
	}
}

// craftFleet builds a minimal fleet with one system, one shelf, and one
// RAID group over the first `groupSize` disks.
func craftFleet(groupSize int, rt fleet.RAIDType) *fleet.Fleet {
	f := &fleet.Fleet{}
	all := fleet.Span{Lo: 0, Hi: int32(groupSize)}
	shelf := fleet.Shelf{System: 0, Disks: all}
	g := fleet.RAIDGroup{System: 0, Type: rt, Members: all, ShelvesSpanned: 1}
	for i := 0; i < groupSize; i++ {
		f.Members = append(f.Members, int32(i))
	}
	one := fleet.Span{Lo: 0, Hi: 1}
	f.Systems = []fleet.System{{ID: 0, Class: fleet.MidRange, Install: 0, Shelves: one, RAIDGroups: one}}
	f.Shelves = []fleet.Shelf{shelf}
	f.Groups = []fleet.RAIDGroup{g}
	return f
}

func event(disk int, at simtime.Seconds) failmodel.Event {
	return failmodel.Event{
		Time: at, Detected: simtime.NextScrub(at),
		Type: failmodel.DiskFailure, Cause: failmodel.CauseDiskMedia,
		Disk: int32(disk), Shelf: 0, System: 0, Group: 0,
	}
}

func TestReplaySingleFailureNoLoss(t *testing.T) {
	f := craftFleet(8, fleet.RAID4)
	res := Replay(f, []failmodel.Event{event(0, 1000)}, 0.01, nil)
	if len(res.Losses) != 0 {
		t.Error("one failure under RAID4 is not a loss")
	}
	if res.DoubleEvents != 0 {
		t.Error("no concurrent failures expected")
	}
}

func TestReplayConcurrentFailuresLoseData(t *testing.T) {
	f := craftFleet(8, fleet.RAID4)
	repair := 36.0 / 8760 // 36h
	within := simtime.Seconds(3600)
	events := []failmodel.Event{event(0, 1000), event(1, 1000+within)}
	res := Replay(f, events, repair, nil)
	if len(res.Losses) != 1 {
		t.Fatalf("two overlapping failures under RAID4 must lose data, got %d losses", len(res.Losses))
	}
	if res.Losses[0].Concurrent != 2 {
		t.Errorf("loss with %d concurrent, want 2", res.Losses[0].Concurrent)
	}
	// RAID6 absorbs the same double failure.
	f6 := craftFleet(8, fleet.RAID6)
	res6 := Replay(f6, events, repair, nil)
	if len(res6.Losses) != 0 {
		t.Error("RAID6 must absorb a double failure")
	}
	// But not a triple.
	events = append(events, event(2, 1000+2*within))
	res6 = Replay(f6, events, repair, nil)
	if len(res6.Losses) != 1 {
		t.Error("RAID6 must lose data on a triple failure")
	}
}

func TestReplayRepairSeparatesFailures(t *testing.T) {
	f := craftFleet(8, fleet.RAID4)
	repair := 36.0 / 8760
	gap := simtime.YearsToSeconds(repair) + 10
	events := []failmodel.Event{event(0, 1000), event(1, 1000+gap)}
	res := Replay(f, events, repair, nil)
	if len(res.Losses) != 0 {
		t.Error("failures separated by more than the repair time must not lose data")
	}
}

func TestReplaySameDiskRepeatIsNotDouble(t *testing.T) {
	f := craftFleet(8, fleet.RAID4)
	events := []failmodel.Event{event(3, 1000), event(3, 2000)}
	res := Replay(f, events, 0.01, nil)
	if len(res.Losses) != 0 {
		t.Error("repeat failures of one disk are not concurrent failures")
	}
}

func TestReplayFilters(t *testing.T) {
	f := craftFleet(8, fleet.RAID4)
	pi := failmodel.Event{
		Time: 1000, Detected: 3600, Type: failmodel.PhysicalInterconnect,
		Cause: failmodel.CauseCable, Disk: 0, Group: 0, System: 0,
	}
	disk := event(1, 2000)
	recovered := pi
	recovered.Recovered = true
	recovered.Disk = 2

	all := Replay(f, []failmodel.Event{pi, disk, recovered}, 0.01, nil)
	if all.DoubleEvents != 1 {
		t.Errorf("PI + disk within repair window should double-degrade once, got %d", all.DoubleEvents)
	}
	diskOnly := Replay(f, []failmodel.Event{pi, disk, recovered}, 0.01,
		func(e failmodel.Event) bool { return e.Type == failmodel.DiskFailure })
	if diskOnly.DoubleEvents != 0 {
		t.Error("disk-only filter must drop the interconnect event")
	}
}

func TestReplayGroupYears(t *testing.T) {
	f := craftFleet(8, fleet.RAID4)
	res := Replay(f, nil, 0.01, nil)
	want := simtime.StudyYears()
	if math.Abs(res.GroupYears-want) > 1e-9 {
		t.Errorf("group-years %g, want %g", res.GroupYears, want)
	}
	if res.LossRatePerGroupYear() != 0 {
		t.Error("no events, no losses")
	}
}

func TestCorrelatedStreamLosesMoreThanIndependent(t *testing.T) {
	// The headline ablation: replaying the simulator's bursty history
	// produces materially more data-loss exposure than an
	// independence-preserving shuffle with identical per-group counts.
	f := fleet.BuildDefault(0.05, 51)
	res := sim.Run(f, failmodel.DefaultParams(), 52)
	repair := 72.0 / 8760 // 72h to make double-exposure measurable at this scale

	observed := Replay(f, res.Events, repair, nil)
	independent := IndependentBaseline(f, res.Events, repair, nil, 53)

	if observed.DoubleEvents <= independent.DoubleEvents {
		t.Errorf("correlated history should double-degrade more: %d vs %d",
			observed.DoubleEvents, independent.DoubleEvents)
	}
	if len(observed.Losses) <= len(independent.Losses) {
		t.Errorf("correlated history should lose more data: %d vs %d losses",
			len(observed.Losses), len(independent.Losses))
	}
}

func TestIndependentBaselinePreservesCounts(t *testing.T) {
	f := craftFleet(8, fleet.RAID4)
	var events []failmodel.Event
	for i := 0; i < 20; i++ {
		events = append(events, event(i%8, simtime.Seconds(1000*(i+1))))
	}
	base := IndependentBaseline(f, events, 0.01, nil, 9)
	// The synthetic stream has the same total group-years and a
	// comparable event budget (exactly preserved per group).
	if base.GroupYears != Replay(f, events, 0.01, nil).GroupYears {
		t.Error("baseline must preserve exposure")
	}
}
