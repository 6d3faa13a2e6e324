package autosupport

import (
	"strings"
	"testing"

	"storagesubsys/internal/eventlog"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/simtime"
)

var cached *Database
var cachedRes *sim.Result

func smallDB(t *testing.T) (*Database, *sim.Result) {
	t.Helper()
	if cached == nil {
		f := fleet.BuildDefault(0.01, 31)
		cachedRes = sim.Run(f, failmodel.DefaultParams(), 32)
		cached = Collect(f, cachedRes.Events)
	}
	return cached, cachedRes
}

func TestCollectBundlesAllEvents(t *testing.T) {
	db, res := smallDB(t)
	_, _, messages := db.Stats()
	// Every event emits at least 2 messages; the totals must be
	// consistent.
	if messages < 2*len(res.Events) {
		t.Errorf("collected %d messages for %d events", messages, len(res.Events))
	}
	// Bundles are per (system, week) and ordered by week.
	weeks := int(simtime.StudyDuration/(7*simtime.SecondsPerDay)) + 1
	for _, sysID := range db.Systems() {
		prev := -1
		for _, b := range db.Bundles(sysID) {
			if b.Week <= prev {
				t.Fatal("bundles must be week-ordered and unique")
			}
			prev = b.Week
			if b.SystemID != sysID {
				t.Fatal("bundle system mismatch")
			}
			if b.Week < 0 || b.Week >= weeks {
				t.Fatalf("bundle week %d out of range", b.Week)
			}
			for i := 1; i < len(b.Messages); i++ {
				if b.Messages[i].Time.Before(b.Messages[i-1].Time) {
					t.Fatal("bundle messages must be time-ordered")
				}
			}
		}
	}
}

func TestMineEventsMatchesVisibleGroundTruth(t *testing.T) {
	db, res := smallDB(t)
	mined, dropped := db.MineEvents()
	if dropped != 0 {
		t.Fatalf("%d unresolvable records from clean pipeline", dropped)
	}
	visible := res.VisibleEvents()
	if len(mined) != len(visible) {
		t.Fatalf("mined %d events, want %d", len(mined), len(visible))
	}
	// Compare as multisets on (disk, type, detected) since mining sorts
	// by detection while ground truth sorts by occurrence.
	type key struct {
		disk int
		ft   failmodel.FailureType
		det  simtime.Seconds
	}
	count := map[key]int{}
	for _, e := range visible {
		count[key{e.Disk, e.Type, e.Detected}]++
	}
	for _, e := range mined {
		k := key{e.Disk, e.Type, e.Detected}
		count[k]--
		if count[k] == 0 {
			delete(count, k)
		}
	}
	if len(count) != 0 {
		t.Fatalf("mined events differ from ground truth: %d residual keys", len(count))
	}
}

func TestSnapshotReflectsResidency(t *testing.T) {
	db, res := smallDB(t)
	f := res.Fleet
	// For a system with replacements, an early snapshot must not list
	// disks installed later.
	for _, sysID := range db.Systems() {
		bundles := db.Bundles(sysID)
		first := bundles[0]
		at := simtime.Seconds(first.Week+1) * 7 * simtime.SecondsPerDay
		for _, shelf := range TakeSnapshot(f, sysID, first.Week).Shelves {
			for _, sd := range shelf.Disks {
				// Find the disk by serial and check residency.
				found := false
				for _, shelfID := range f.Systems[sysID].Shelves {
					for _, diskID := range f.Shelves[shelfID].Disks {
						d := f.Disks[diskID]
						if fleet.Serial(d.ID) == sd.Serial {
							found = true
							if d.Install > at || d.Remove <= simtime.Clamp(at) && d.Remove < at {
								t.Fatalf("snapshot lists non-resident disk %s", sd.Serial)
							}
						}
					}
				}
				if !found {
					t.Fatalf("snapshot serial %s not in fleet", sd.Serial)
				}
			}
		}
		break // one system suffices for residency checking
	}
}

func TestSnapshotMetadata(t *testing.T) {
	db, res := smallDB(t)
	f := res.Fleet
	for _, sysID := range db.Systems()[:3] {
		sys := f.Systems[sysID]
		snap := TakeSnapshot(f, sysID, 10)
		if snap.Class != sys.Class.String() || snap.Paths != sys.Paths.String() {
			t.Error("snapshot class/paths mismatch")
		}
		if snap.DiskModel != sys.DiskModel.String() || snap.ShelfModel != string(sys.ShelfModel) {
			t.Error("snapshot model mismatch")
		}
		if len(snap.Shelves) != len(sys.Shelves) {
			t.Error("snapshot shelf count mismatch")
		}
	}
}

func TestRenderSystemLogReparses(t *testing.T) {
	db, _ := smallDB(t)
	for _, sysID := range db.Systems() {
		text := db.RenderSystemLog(sysID)
		if text == "" {
			continue
		}
		msgs, malformed, err := eventlog.ParseLog(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if malformed != 0 {
			t.Fatalf("system %d: %d malformed lines in rendered log", sysID, malformed)
		}
		if len(msgs) == 0 {
			t.Fatalf("system %d: empty parse of non-empty log", sysID)
		}
		break
	}
}
