package core

import (
	"math"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
)

// craftedFleet builds a deterministic two-system fleet for arithmetic
// tests: system 0 (mid-range, shelf B, disk A-2, single path, installed
// at t=0) with two shelves of two disks; system 1 (mid-range, shelf B,
// disk H-1, dual path) with one shelf of two disks. One RAID group per
// system.
func craftedFleet() *fleet.Fleet {
	f := &fleet.Fleet{}
	addSystem := func(model fleet.DiskModel, paths fleet.PathConfig, shelves, disksPerShelf int) *fleet.System {
		sys := &fleet.System{
			ID: len(f.Systems), Class: fleet.MidRange, ShelfModel: fleet.ShelfB,
			DiskModel: model, Paths: paths, Install: 0,
		}
		f.Systems = append(f.Systems, sys)
		g := &fleet.RAIDGroup{ID: len(f.Groups), System: sys.ID, Type: fleet.RAID4}
		f.Groups = append(f.Groups, g)
		sys.RAIDGroups = []int{g.ID}
		for s := 0; s < shelves; s++ {
			shelf := &fleet.Shelf{ID: len(f.Shelves), System: sys.ID, Index: s}
			f.Shelves = append(f.Shelves, shelf)
			sys.Shelves = append(sys.Shelves, shelf.ID)
			for i := 0; i < disksPerShelf; i++ {
				d := &fleet.Disk{
					ID: len(f.Disks), System: sys.ID, Shelf: shelf.ID, Slot: i,
					RAIDGrp: g.ID,
					Install: 0, Remove: simtime.StudyDuration,
				}
				f.Disks = append(f.Disks, d)
				shelf.Disks = append(shelf.Disks, d.ID)
				g.Disks = append(g.Disks, d.ID)
				g.ShelvesSpanned = s + 1
			}
		}
		return sys
	}
	addSystem(fleet.DiskA2, fleet.SinglePath, 2, 2)
	addSystem(fleet.DiskH1, fleet.DualPath, 1, 2)
	return f
}

func ev(disk int, f *fleet.Fleet, t simtime.Seconds, ft failmodel.FailureType, recovered bool) failmodel.Event {
	d := f.Disks[disk]
	return failmodel.Event{
		Time: t, Detected: simtime.NextScrub(t), Type: ft,
		Cause: causeFor(ft), Disk: disk, Shelf: d.Shelf, System: d.System,
		Group: d.RAIDGrp, Recovered: recovered,
	}
}

func causeFor(ft failmodel.FailureType) failmodel.Cause {
	switch ft {
	case failmodel.DiskFailure:
		return failmodel.CauseDiskMedia
	case failmodel.PhysicalInterconnect:
		return failmodel.CauseCable
	case failmodel.Protocol:
		return failmodel.CauseDriverBug
	default:
		return failmodel.CauseSlowIO
	}
}

func TestAFRArithmetic(t *testing.T) {
	f := craftedFleet()
	events := []failmodel.Event{
		ev(0, f, 1000, failmodel.DiskFailure, false),
		ev(1, f, 2000, failmodel.PhysicalInterconnect, false),
		ev(4, f, 3000, failmodel.PhysicalInterconnect, true), // recovered: excluded
	}
	ds := NewDataset(f, events)
	bs := ds.AFRByClass(Filter{})
	var mid Breakdown
	for _, b := range bs {
		if b.Label == "Mid-range" {
			mid = b
		}
	}
	// 6 disks, each observed the whole window.
	wantYears := 6 * simtime.StudyYears()
	if math.Abs(mid.DiskYears-wantYears) > 1e-9 {
		t.Fatalf("disk-years %g, want %g", mid.DiskYears, wantYears)
	}
	if mid.Events[failmodel.DiskFailure] != 1 || mid.Events[failmodel.PhysicalInterconnect] != 1 {
		t.Fatalf("event counts wrong: %+v", mid.Events)
	}
	wantAFR := 1 / wantYears
	if math.Abs(mid.AFR[failmodel.DiskFailure]-wantAFR) > 1e-12 {
		t.Errorf("disk AFR %g, want %g", mid.AFR[failmodel.DiskFailure], wantAFR)
	}
	if math.Abs(mid.TotalAFR()-2*wantAFR) > 1e-12 {
		t.Errorf("total AFR %g, want %g", mid.TotalAFR(), 2*wantAFR)
	}
	if mid.Share(failmodel.DiskFailure) != 0.5 {
		t.Errorf("disk share %g, want 0.5", mid.Share(failmodel.DiskFailure))
	}
	if mid.Systems != 2 || mid.Shelves != 3 || mid.Disks != 6 || mid.Groups != 2 {
		t.Errorf("population counts wrong: %+v", mid)
	}
}

func TestFilterExcludeFamily(t *testing.T) {
	f := craftedFleet()
	events := []failmodel.Event{
		ev(0, f, 1000, failmodel.DiskFailure, false), // system 0 (A-2)
		ev(4, f, 2000, failmodel.DiskFailure, false), // system 1 (H-1)
	}
	ds := NewDataset(f, events)
	bs := ds.AFRByClass(Filter{ExcludeFamily: "H"})
	var mid Breakdown
	for _, b := range bs {
		if b.Label == "Mid-range" {
			mid = b
		}
	}
	if mid.Label != "Mid-range" {
		t.Fatalf("mid-range breakdown missing: %+v", bs)
	}
	if mid.Disks != 4 {
		t.Errorf("exclude-H population %d disks, want 4", mid.Disks)
	}
	if mid.Events[failmodel.DiskFailure] != 1 {
		t.Errorf("exclude-H events %d, want 1", mid.Events[failmodel.DiskFailure])
	}
}

func TestFilterRecoveredAndSystem(t *testing.T) {
	f := craftedFleet()
	events := []failmodel.Event{
		ev(0, f, 1000, failmodel.PhysicalInterconnect, true),
		ev(1, f, 2000, failmodel.Protocol, false),
	}
	ds := NewDataset(f, events)

	noRec := ds.selectEvents(Filter{})
	if len(noRec) != 1 || noRec[0].Type != failmodel.Protocol {
		t.Fatalf("default filter: %d events, want only the visible protocol failure", len(noRec))
	}
	none := ds.selectEvents(Filter{System: func(s *fleet.System) bool { return false }})
	if len(none) != 0 {
		t.Fatal("system predicate filter failed")
	}
}

func TestAFRByPathConfigOrder(t *testing.T) {
	f := craftedFleet()
	ds := NewDataset(f, nil)
	bs := ds.AFRByPathConfig(fleet.MidRange, Filter{})
	if len(bs) != 2 || bs[0].Label != "Single Path" || bs[1].Label != "Dual Paths" {
		t.Fatalf("path config order wrong: %+v", bs)
	}
}

func TestGapsDuplicateFilterAndValues(t *testing.T) {
	f := craftedFleet()
	h := simtime.SecondsPerHour
	events := []failmodel.Event{
		// Shelf 0 sequence (disks 0 and 1 share shelf 0):
		ev(0, f, 1*h, failmodel.DiskFailure, false),
		ev(0, f, 2*h, failmodel.DiskFailure, false), // duplicate: same disk consecutively -> filtered
		ev(1, f, 5*h, failmodel.DiskFailure, false), // gap = 4h from first retained
		// Shelf 1 (disks 2, 3) with one event: contributes no gaps.
		ev(2, f, 7*h, failmodel.DiskFailure, false),
	}
	ds := NewDataset(f, events)
	g := ds.Gaps(ByShelf, Filter{})
	disk := g.PerType[failmodel.DiskFailure]
	if disk.Len() != 1 {
		t.Fatalf("retained %d gaps, want 1 (duplicate filter)", disk.Len())
	}
	if got := disk.Values()[0]; got != float64(4*h) {
		t.Errorf("gap %g, want %g", got, float64(4*h))
	}
	if g.Containers != 1 {
		t.Errorf("containers with >=2 failures: %d, want 1", g.Containers)
	}
	// Overall sequence retains the same events.
	if g.Overall.Len() != 1 {
		t.Errorf("overall gaps %d, want 1", g.Overall.Len())
	}
}

func TestGapsRAIDGroupScope(t *testing.T) {
	f := craftedFleet()
	h := simtime.SecondsPerHour
	// Disks 0 and 2 are in the same RAID group (system 0) but different
	// shelves: a gap appears at RAID-group scope only.
	events := []failmodel.Event{
		ev(0, f, 1*h, failmodel.PhysicalInterconnect, false),
		ev(2, f, 3*h, failmodel.PhysicalInterconnect, false),
	}
	ds := NewDataset(f, events)
	shelf := ds.Gaps(ByShelf, Filter{})
	rg := ds.Gaps(ByRAIDGroup, Filter{})
	if shelf.PerType[failmodel.PhysicalInterconnect].Len() != 0 {
		t.Error("different shelves: no shelf-scope gap expected")
	}
	if rg.PerType[failmodel.PhysicalInterconnect].Len() != 1 {
		t.Error("same RAID group: expected one gap")
	}
	// Spare disks (group -1) never contribute at RAID-group scope.
	spare := ev(1, f, 9*h, failmodel.DiskFailure, false)
	spare.Group = -1
	ds2 := NewDataset(f, []failmodel.Event{spare, ev(3, f, 11*h, failmodel.DiskFailure, false)})
	rg2 := ds2.Gaps(ByRAIDGroup, Filter{})
	if rg2.PerType[failmodel.DiskFailure].Len() != 0 {
		t.Error("spare-disk events must be excluded from RAID-group scope")
	}
}

func TestGapsUseDetectionTimes(t *testing.T) {
	f := craftedFleet()
	// Two failures 30 minutes apart straddling a scrub boundary detect
	// an hour apart.
	events := []failmodel.Event{
		ev(0, f, 1800, failmodel.DiskFailure, false), // detected at 3600
		ev(1, f, 5400, failmodel.DiskFailure, false), // detected at 7200
	}
	ds := NewDataset(f, events)
	g := ds.Gaps(ByShelf, Filter{})
	if got := g.PerType[failmodel.DiskFailure].Values()[0]; got != 3600 {
		t.Errorf("gap %g, want 3600 (detection-time spacing)", got)
	}
}

func TestDetectionLagBound(t *testing.T) {
	f := craftedFleet()
	events := []failmodel.Event{ev(0, f, 1800, failmodel.DiskFailure, false)}
	ds := NewDataset(f, events)
	if lag := ds.DetectionLagBound(); lag != 1800 {
		t.Errorf("lag %g, want 1800", lag)
	}
}

func TestCorrelationCounting(t *testing.T) {
	f := craftedFleet()
	year := simtime.SecondsPerYear
	events := []failmodel.Event{
		// Shelf 0: exactly two disk failures within the first year
		// (different disks).
		ev(0, f, 1000, failmodel.DiskFailure, false),
		ev(1, f, 2000000, failmodel.DiskFailure, false),
		// Shelf 1: exactly one.
		ev(2, f, 5000, failmodel.DiskFailure, false),
		// Shelf 2 (system 1): one event outside the window.
		ev(4, f, year+simtime.SecondsPerDay, failmodel.DiskFailure, false),
	}
	ds := NewDataset(f, events)
	results := ds.Correlation(ByShelf, CorrelationOptions{})
	var disk CorrelationResult
	for _, r := range results {
		if r.Type == failmodel.DiskFailure {
			disk = r
		}
	}
	if disk.Containers != 3 {
		t.Fatalf("containers %d, want 3", disk.Containers)
	}
	if disk.CountP1 != 1 || disk.CountP2 != 1 {
		t.Fatalf("P1 count %d, P2 count %d; want 1, 1", disk.CountP1, disk.CountP2)
	}
	wantP1 := 1.0 / 3
	if math.Abs(disk.P1-wantP1) > 1e-12 {
		t.Errorf("P1 = %g, want %g", disk.P1, wantP1)
	}
	if math.Abs(disk.TheoreticalP2-wantP1*wantP1/2) > 1e-12 {
		t.Errorf("theoretical P2 = %g", disk.TheoreticalP2)
	}
	if math.Abs(disk.Ratio-disk.P2/disk.TheoreticalP2) > 1e-9 {
		t.Errorf("ratio inconsistent")
	}
}

func TestCorrelationWindowExcludesYoungContainers(t *testing.T) {
	f := craftedFleet()
	// Install system 1 too late to be observed for a full year... but
	// craftedFleet installs at 0; instead use a 10-year window that no
	// container can satisfy.
	ds := NewDataset(f, nil)
	results := ds.Correlation(ByShelf, CorrelationOptions{Window: 10 * simtime.SecondsPerYear})
	if results[0].Containers != 0 {
		t.Errorf("no shelf observed for 10 years, got %d containers", results[0].Containers)
	}
}

func TestTable1Structure(t *testing.T) {
	f := craftedFleet()
	events := []failmodel.Event{
		ev(0, f, 1000, failmodel.DiskFailure, false),
		ev(4, f, 2000, failmodel.Protocol, false),
		ev(5, f, 3000, failmodel.Performance, true), // recovered: not counted
	}
	ds := NewDataset(f, events)
	rows := ds.Table1()
	if len(rows) != 4 {
		t.Fatalf("Table 1 must have 4 class rows")
	}
	var mid Table1Row
	for _, r := range rows {
		if r.Class == fleet.MidRange {
			mid = r
		}
	}
	if mid.Systems != 2 || mid.Shelves != 3 || mid.Disks != 6 || mid.RAIDGroups != 2 {
		t.Errorf("population: %+v", mid)
	}
	if mid.Events[failmodel.DiskFailure] != 1 || mid.Events[failmodel.Protocol] != 1 {
		t.Errorf("event counts: %+v", mid.Events)
	}
	if mid.Events[failmodel.Performance] != 0 {
		t.Error("recovered events must not appear in Table 1")
	}
	if mid.DiskType != "FC" {
		t.Errorf("disk type %q", mid.DiskType)
	}
	if mid.Multipathing != "single-path dual-path" {
		t.Errorf("multipathing %q", mid.Multipathing)
	}
}

func TestCompareAFRSignificance(t *testing.T) {
	a := Breakdown{
		Label: "A", DiskYears: 50000,
		Events: map[failmodel.FailureType]int{failmodel.PhysicalInterconnect: 1330},
	}
	b := Breakdown{
		Label: "B", DiskYears: 50000,
		Events: map[failmodel.FailureType]int{failmodel.PhysicalInterconnect: 1090},
	}
	res := CompareAFR(a, b, failmodel.PhysicalInterconnect)
	if res.Confidence() < 99.5 {
		t.Errorf("paper-scale difference should be significant, got %v (p=%g)", res.Confidence(), res.P)
	}
}

func TestBreakdownCI(t *testing.T) {
	b := Breakdown{
		DiskYears: 10000,
		Events:    map[failmodel.FailureType]int{failmodel.DiskFailure: 100},
	}
	iv := b.CI(failmodel.DiskFailure, 0.995)
	if !iv.Contains(0.01) {
		t.Error("CI must contain the rate estimate")
	}
}
