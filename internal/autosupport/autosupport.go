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
// The weekly bundles carry messages only: mining joins RAID-layer
// events to disks by serial number and never reads a configuration
// snapshot. TakeSnapshot builds one on demand from the fleet;
// cmd/fleetgen writes one per system.
package autosupport

import (
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
	bundles map[int][]Bundle // system ID -> week-ordered bundles
}

// Bundles returns a system's week-ordered bundles.
func (db *Database) Bundles(systemID int) []Bundle { return db.bundles[systemID] }

// Systems returns the IDs of systems with any collected data, sorted.
func (db *Database) Systems() []int {
	ids := make([]int, 0, len(db.bundles))
	for id := range db.bundles {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Collect runs the support pipeline over a simulated failure history:
// it renders every event's log chain (including recovered faults, whose
// chains stop below the RAID layer) and buckets messages into weekly
// per-system bundles.
func Collect(f *fleet.Fleet, events []failmodel.Event) *Database {
	weekSeconds := 7 * simtime.SecondsPerDay
	db := &Database{
		fleet:   f,
		bundles: make(map[int][]Bundle),
	}

	em := eventlog.NewEmitter(f)
	type key struct{ sys, week int }
	byKey := make(map[key][]eventlog.Message)
	for _, e := range events {
		week := int(e.Time / weekSeconds)
		byKey[key{e.System, week}] = append(byKey[key{e.System, week}], em.Emit(e)...)
	}

	for k, msgs := range byKey {
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].Time.Before(msgs[j].Time) })
		db.bundles[k.sys] = append(db.bundles[k.sys], Bundle{
			SystemID: k.sys,
			Week:     k.week,
			Messages: msgs,
		})
	}
	for sys := range db.bundles {
		bs := db.bundles[sys]
		sort.Slice(bs, func(i, j int) bool { return bs[i].Week < bs[j].Week })
	}
	return db
}

// TakeSnapshot records a system's configuration as of the end of the
// given week: only disks resident at that instant appear, mirroring how
// a real snapshot sees the current population, not history.
func TakeSnapshot(f *fleet.Fleet, systemID, week int) Snapshot {
	at := simtime.Clamp(simtime.Seconds(week+1) * 7 * simtime.SecondsPerDay)
	sys := f.Systems[systemID]
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
	for _, shelfID := range sys.Shelves {
		shelf := f.Shelves[shelfID]
		ss := SnapshotShelf{Index: shelf.Index, Model: snap.ShelfModel}
		for _, diskID := range shelf.Disks {
			d := f.Disks[diskID]
			if d.Install > at || d.Remove <= at {
				continue // not resident at snapshot time
			}
			ss.Disks = append(ss.Disks, SnapshotDisk{
				Serial:    fleet.Serial(d.ID),
				Model:     snap.DiskModel,
				Slot:      d.Slot,
				RAIDGroup: d.RAIDGrp,
			})
		}
		snap.Shelves = append(snap.Shelves, ss)
	}
	return snap
}

// MineEvents runs the paper's log-mining methodology over the whole
// database: classify the collected messages' RAID-layer failure
// signatures by Tag and resolve their Serial to fleet identities. No
// text is rendered or parsed (cmd/fleetgen → cmd/analyze is that round
// trip). It returns the events (sorted by detection time) and the
// number of unresolvable records.
func (db *Database) MineEvents() ([]failmodel.Event, int) {
	rv := eventlog.NewResolver(db.fleet)
	var events []failmodel.Event
	dropped := 0
	for _, sysID := range db.Systems() {
		for _, b := range db.bundles[sysID] {
			failures := eventlog.Classify(b.Messages)
			es, d := rv.ResolveAll(failures)
			events = append(events, es...)
			dropped += d
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return events, dropped
}

// RenderSystemLog renders a system's full raw log (all weeks) as text,
// the artifact cmd/fleetgen writes to disk and cmd/analyze re-mines.
func (db *Database) RenderSystemLog(systemID int) string {
	var out []byte
	for _, b := range db.bundles[systemID] {
		for _, m := range b.Messages {
			out = append(out, m.Render()...)
			out = append(out, '\n')
		}
	}
	return string(out)
}

// Stats summarizes the collected data volume.
func (db *Database) Stats() (systems, bundles, messages int) {
	for _, bs := range db.bundles {
		systems++
		bundles += len(bs)
		for _, b := range bs {
			messages += len(b.Messages)
		}
	}
	return
}
