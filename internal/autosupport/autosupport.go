// Package autosupport reproduces the study's data source: the support
// log pipeline that ships each storage system's event log sections to a
// central database ("Network Appliance AutoSupport Database"), plus the
// mining step that turns the collected messages back into the typed
// failure events the analyses consume.
//
// The paper (Section 2.5): logs record "informational and error events
// on each layer ... during operation" and "system information is also
// copied with snapshots and recorded in storage logs on a weekly basis.
// ... storage logs contain the information about hardware components
// used in storage subsystems, such as disk models and shelf enclosure
// models, and they also contain the information about the layout of
// disks."
//
// The weekly bundles carry messages only, and a message stores its disk
// ID rather than its text: mining in process joins RAID-layer events to
// disks by ID, the rendered-text round trip (RenderSystemLog, then
// eventlog.ParseLog and Classify) by the serial number in the text, and
// neither reads a configuration snapshot. TakeSnapshot builds one on
// demand from the fleet; cmd/fleetgen writes one per system.
package autosupport

import (
	"cmp"
	"slices"
	"sort"

	"storagesubsys/internal/eventlog"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
)

// SnapshotDisk is one disk's configuration record in a weekly snapshot.
type SnapshotDisk struct {
	Serial    string `json:"serial"`
	Model     string `json:"model"`
	Slot      int    `json:"slot"`
	RAIDGroup int    `json:"raid_group"`
}

// SnapshotShelf is one shelf enclosure's record in a weekly snapshot.
type SnapshotShelf struct {
	Index int            `json:"index"`
	Model string         `json:"model"`
	Disks []SnapshotDisk `json:"disks"`
}

// Snapshot is a weekly configuration snapshot of one storage system.
type Snapshot struct {
	SystemID   int             `json:"system_id"`
	Week       int             `json:"week"`
	Class      string          `json:"class"`
	Paths      string          `json:"paths"`
	ShelfModel string          `json:"shelf_model"`
	DiskModel  string          `json:"disk_model"`
	Shelves    []SnapshotShelf `json:"shelves"`
}

// Bundle is one week of a system's support data: the log section.
type Bundle struct {
	SystemID int
	Week     int
	Messages []eventlog.Message
}

// Database is the collected support data of a whole fleet, queryable by
// system and week.
type Database struct {
	fleet   *fleet.Fleet
	bundles []Bundle // ordered by system ID, then week
}

// Bundles returns a system's week-ordered bundles.
func (db *Database) Bundles(systemID int) []Bundle {
	lo := sort.Search(len(db.bundles), func(i int) bool { return db.bundles[i].SystemID >= systemID })
	hi := sort.Search(len(db.bundles), func(i int) bool { return db.bundles[i].SystemID > systemID })
	return db.bundles[lo:hi]
}

// Systems returns the IDs of systems with any collected data, sorted.
func (db *Database) Systems() []int {
	var ids []int
	for _, b := range db.bundles {
		if len(ids) == 0 || ids[len(ids)-1] != b.SystemID {
			ids = append(ids, b.SystemID)
		}
	}
	return ids
}

// Collect runs the support pipeline over a simulated failure history:
// it emits every event's log chain (including recovered faults, whose
// chains stop below the RAID layer) into weekly per-system bundles,
// each ordered by time. Events keep their simulator order within a
// bundle before its time sort, which fixes the order of equal-time
// messages.
func Collect(f *fleet.Fleet, events []failmodel.Event) *Database {
	week := func(i int32) int { return int(events[i].Time / (7 * simtime.SecondsPerDay)) }
	order := make([]int32, len(events))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(events[a].System, events[b].System), cmp.Compare(week(a), week(b)))
	})
	db := &Database{fleet: f}
	var msgs []eventlog.Message
	var starts []int // bundle i's messages are msgs[starts[i]:starts[i+1]]
	for _, i := range order {
		sys, wk := int(events[i].System), week(i)
		if n := len(db.bundles); n == 0 || db.bundles[n-1].SystemID != sys || db.bundles[n-1].Week != wk {
			db.bundles = append(db.bundles, Bundle{SystemID: sys, Week: wk})
			starts = append(starts, len(msgs))
		}
		msgs = eventlog.Emit(msgs, events[i])
	}
	starts = append(starts, len(msgs))
	for i := range db.bundles {
		b := msgs[starts[i]:starts[i+1]:starts[i+1]]
		slices.SortFunc(b, func(x, y eventlog.Message) int { return cmp.Compare(x.Time, y.Time) })
		db.bundles[i].Messages = b
	}
	return db
}

// TakeSnapshot records a system's configuration as of the end of the
// given week: only disks resident at that instant appear, mirroring how
// a real snapshot sees the current population, not history.
func TakeSnapshot(f *fleet.Fleet, systemID, week int) Snapshot {
	at := simtime.Clamp(simtime.Seconds(week+1) * 7 * simtime.SecondsPerDay)
	sys := &f.Systems[systemID]
	snap := Snapshot{
		SystemID:   systemID,
		Week:       week,
		Class:      sys.Class.String(),
		Paths:      sys.Paths.String(),
		ShelfModel: string(sys.ShelfModel),
		DiskModel:  sys.DiskModel.String(),
	}
	// Systems are homogeneous: every shelf and disk record carries the
	// system's models.
	var ids []int
	for shelfID := int(sys.Shelves.Lo); shelfID < int(sys.Shelves.Hi); shelfID++ {
		ss := SnapshotShelf{Index: f.ShelfIndex(shelfID), Model: snap.ShelfModel}
		ids = f.ShelfDisks(ids[:0], shelfID)
		for _, diskID := range ids {
			d := f.Disk(diskID)
			if simtime.Seconds(d.Install) > at || simtime.Seconds(d.Remove) <= at {
				continue // not resident at snapshot time
			}
			ss.Disks = append(ss.Disks, SnapshotDisk{
				Serial:    fleet.Serial(diskID),
				Model:     snap.DiskModel,
				Slot:      int(d.Slot),
				RAIDGroup: int(d.RAIDGrp),
			})
		}
		snap.Shelves = append(snap.Shelves, ss)
	}
	return snap
}

// MineEvents runs the paper's log-mining methodology over the whole
// database: classify the collected messages' RAID-layer failure
// signatures by tag and resolve their disks by ID. No text is rendered
// or parsed (cmd/fleetgen → cmd/analyze is that round trip, which joins
// by serial instead and resolves and drops the same records). It
// returns the events (sorted by detection time) and the number of
// unresolvable records.
func (db *Database) MineEvents() ([]failmodel.Event, int) {
	rv := eventlog.NewResolver(db.fleet)
	var events []failmodel.Event
	dropped := 0
	for _, b := range db.bundles {
		for _, m := range b.Messages {
			t, ok := eventlog.FailureTypeForTag(m.Tag())
			if !ok {
				continue
			}
			e, ok := rv.ResolveDisk(int(m.Disk), t, m.Time)
			if !ok {
				dropped++
				continue
			}
			events = append(events, e)
		}
	}
	failmodel.SortEvents(events, nil, func(a, b int32) int { return cmp.Compare(events[a].Time, events[b].Time) })
	return events, dropped
}

// RenderSystemLog renders a system's full raw log (all weeks) as text,
// the artifact cmd/fleetgen writes to disk and cmd/analyze re-mines.
func (db *Database) RenderSystemLog(systemID int) string {
	var out []byte
	for _, b := range db.Bundles(systemID) {
		for _, m := range b.Messages {
			out = append(out, m.Line(db.fleet).Render()...)
			out = append(out, '\n')
		}
	}
	return string(out)
}

// Stats summarizes the collected data volume.
func (db *Database) Stats() (systems, bundles, messages int) {
	for _, b := range db.bundles {
		messages += len(b.Messages)
	}
	return len(db.Systems()), len(db.bundles), messages
}
