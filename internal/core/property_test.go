package core

import (
	"math"
	"testing"
	"testing/quick"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/simtime"
)

// randomEvents derives a deterministic event set on the crafted fleet
// from a fuzz seed: each byte places one event (disk, type, time,
// recovered flag).
func randomEvents(f *fleet.Fleet, seed []byte) []failmodel.Event {
	var events []failmodel.Event
	for i, b := range seed {
		disk := int(b) % f.NumDisks()
		ft := failmodel.Types[int(b>>2)%len(failmodel.Types)]
		at := simtime.Seconds(i+1) * 50000 % simtime.StudyDuration
		events = append(events, ev(disk, f, at, ft, b&0x80 != 0))
	}
	return events
}

// Property: group breakdowns partition the visible filtered events —
// total events across groups equals the number of admitted events, and
// AFR times disk-years recovers the event count for every group.
func TestQuickBreakdownPartitionsEvents(t *testing.T) {
	f := craftedFleet()
	check := func(seed []byte) bool {
		events := randomEvents(f, seed)
		ds := NewDataset(f, events)
		bs := ds.AFRByGroup(func(s *fleet.System) (string, bool) {
			return s.DiskModel.String(), true
		}, Filter{})
		total := 0
		for _, b := range bs {
			total += b.TotalEvents()
			for _, ft := range failmodel.Types {
				reconstructed := b.AFR[ft] * b.DiskYears
				if diff := reconstructed - float64(b.Events[ft]); diff > 1e-6 || diff < -1e-6 {
					return false
				}
			}
		}
		visible := 0
		for _, e := range events {
			if e.Visible() {
				visible++
			}
		}
		return total == visible
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the duplicate filter never yields more gaps than events-1
// per container, and all gaps are at least one second.
func TestQuickGapBounds(t *testing.T) {
	f := craftedFleet()
	check := func(seed []byte) bool {
		events := randomEvents(f, seed)
		ds := NewDataset(f, events)
		g := ds.Gaps(ByShelf, Filter{})
		visible := 0
		for _, e := range events {
			if e.Visible() {
				visible++
			}
		}
		if g.Overall.Len() > visible {
			return false
		}
		for _, x := range g.Overall.Values() {
			if x < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: correlation counting is consistent — P1 and P2 are
// fractions in [0,1], theoretical P2 = P1^2/2 exactly, and counts never
// exceed the container population.
func TestQuickCorrelationConsistency(t *testing.T) {
	f := craftedFleet()
	check := func(seed []byte) bool {
		events := randomEvents(f, seed)
		ds := NewDataset(f, events)
		for _, scope := range []Scope{ByShelf, ByRAIDGroup} {
			for _, r := range ds.Correlation(scope, CorrelationOptions{}) {
				if r.CountP1 > r.Containers || r.CountP2 > r.Containers {
					return false
				}
				if r.P1 < 0 || r.P1 > 1 || r.P2 < 0 || r.P2 > 1 {
					return false
				}
				want := r.P1 * r.P1 / 2
				if diff := r.TheoreticalP2 - want; diff > 1e-12 || diff < -1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestExposureConservedOverTrials checks exposure conservation on real
// trials: three seeds at 1% scale under the baseline and the ops
// grid's churn-x4 and sparse-shelves fleets. The class breakdowns
// with an empty filter hold every disk ever installed exactly once,
// and their disk-years equal an independent sum over Fleet.Disk within
// 1e-12 relative. A slot's occupants never overlap, so each slot's
// summed residency is at most its system's observed window.
func TestExposureConservedOverTrials(t *testing.T) {
	for _, o := range []struct {
		name string
		mod  func(p *fleet.ClassProfile)
	}{
		{"baseline", func(*fleet.ClassProfile) {}},
		{"churn-x4", func(p *fleet.ClassProfile) { p.ChurnPerDiskYear *= 4 }},
		{"sparse-shelves", func(p *fleet.ClassProfile) { p.SparseShelfFraction = 0.5 }},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			profiles := fleet.DefaultProfiles()
			for i := range profiles {
				o.mod(&profiles[i])
			}
			f := fleet.Build(profiles, 0.01, seed)
			ds := NewDataset(f, sim.Run(f, failmodel.DefaultParams(), seed+100).Events)

			disks, years := 0, 0.0
			for _, b := range ds.classBreakdowns(Filter{}) {
				disks += b.Disks
				years += b.DiskYears
			}
			if disks != f.NumDisks() {
				t.Errorf("%s seed %d: class breakdowns hold %d disks, fleet %d", o.name, seed, disks, f.NumDisks())
			}
			want := 0.0
			slots := make([]simtime.Seconds, len(f.Shelves)*fleet.MaxDisksPerShelf)
			for id := range f.NumDisks() {
				d := f.Disk(id)
				want += d.ResidencyYears()
				slots[int(d.Shelf)*fleet.MaxDisksPerShelf+int(d.Slot)] += d.Residency()
			}
			if math.Abs(years-want) > 1e-12*want {
				t.Errorf("%s seed %d: class breakdowns hold %v disk-years, the disks %v", o.name, seed, years, want)
			}
			for i, r := range slots {
				sys := &f.Systems[f.Shelves[i/fleet.MaxDisksPerShelf].System]
				if window := simtime.StudyDuration - sys.Install; r > window {
					t.Fatalf("%s seed %d: shelf %d slot %d holds %d s of residency in a %d s window",
						o.name, seed, i/fleet.MaxDisksPerShelf, i%fleet.MaxDisksPerShelf, r, window)
				}
			}
		}
	}
}
