package autosupport

import (
	"cmp"
	"slices"
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
				if b.Messages[i].Time < b.Messages[i-1].Time {
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
	visible := slices.DeleteFunc(slices.Clone(res.Events), func(e failmodel.Event) bool { return !e.Visible() })
	if len(mined) != len(visible) {
		t.Fatalf("mined %d events, want %d", len(mined), len(visible))
	}
	// Compare as multisets on (disk, type, detected) since mining sorts
	// by detection while ground truth sorts by occurrence.
	type key struct {
		disk int32
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
				for shelfID := f.Systems[sysID].Shelves.Lo; shelfID < f.Systems[sysID].Shelves.Hi; shelfID++ {
					for _, diskID := range f.ShelfDisks(nil, int(shelfID)) {
						d := f.Disk(diskID)
						install, remove := simtime.Seconds(d.Install), simtime.Seconds(d.Remove)
						if fleet.Serial(diskID) == sd.Serial {
							found = true
							if install > at || remove <= simtime.Clamp(at) && remove < at {
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
		if len(snap.Shelves) != sys.Shelves.Len() {
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

// TestMineEventsIsTheTextMiner checks that in-process mining is the
// text miner minus the text: rendering each system's log, parsing and
// classifying it and resolving serials through the Resolver, then
// sorting by time exactly as MineEvents does, gives MineEvents' output
// event for event — every field, in order.
func TestMineEventsIsTheTextMiner(t *testing.T) {
	db, res := smallDB(t)
	rv := eventlog.NewResolver(res.Fleet)
	var text []failmodel.Event
	textDropped := 0
	for _, sysID := range db.Systems() {
		lines, malformed, err := eventlog.ParseLog(strings.NewReader(db.RenderSystemLog(sysID)))
		if err != nil || malformed != 0 {
			t.Fatalf("system %d: %d malformed lines, err %v", sysID, malformed, err)
		}
		es, dropped := rv.ResolveAll(eventlog.Classify(lines))
		text = append(text, es...)
		textDropped += dropped
	}
	slices.SortFunc(text, func(x, y failmodel.Event) int { return cmp.Compare(x.Time, y.Time) })

	mined, dropped := db.MineEvents()
	if dropped != 0 || textDropped != 0 {
		t.Fatalf("dropped %d in process, %d from text; want 0 and 0", dropped, textDropped)
	}
	if len(mined) == 0 || !slices.Equal(mined, text) {
		t.Fatalf("in-process mining gives %d events, the text miner %d, or they differ", len(mined), len(text))
	}
}

// TestCollectAllocBudget bounds the mined path's allocations: Collect
// may allocate at most once per message it stores (messages hold no
// text, so it formats nothing), and MineEvents at most a handful of
// times however many messages it reads.
func TestCollectAllocBudget(t *testing.T) {
	db, res := smallDB(t)
	_, _, messages := db.Stats()
	collect := testing.AllocsPerRun(3, func() { Collect(res.Fleet, res.Events) })
	mine := testing.AllocsPerRun(3, func() { db.MineEvents() })
	t.Logf("%d messages: Collect %.0f allocs, MineEvents %.0f", messages, collect, mine)
	if collect > float64(messages) {
		t.Errorf("Collect made %.0f allocations for %d messages, budget one per message", collect, messages)
	}
	if mine > 64 {
		t.Errorf("MineEvents made %.0f allocations, budget 64", mine)
	}
}
