// Package fleet models the population of storage systems the paper
// studies: four system classes, storage systems composed of shelf
// enclosures (up to 14 disks each), disks identified by family/model,
// RAID groups spanning shelves, and single/dual path network
// configuration. A Fleet is the static topology plus the deployment
// schedule; the failure simulator (internal/sim) animates it.
//
// A Fleet is four value slabs — systems, shelves, disks, RAID groups —
// each indexed by component ID, with no pointer index over them. A
// disk's ID is its index in the disk slab and is not stored; the disk
// record is 32 pointer-free bytes.
//
// Construction is serial and allocation-lean. Every (class, system)
// pair draws from an RNG stream split off the seed by (class, system
// ordinal); Build fills one arena of value slabs wired by index (no
// per-component pointer allocations, RAID layout over recycled
// scratch) and copies it once into the fleet's exact-length slabs. The
// paper's full ~39,000-system / ~1.7M-disk population builds in well
// under a second on one core with a small constant number of
// allocations (the legacy pointer-per-item builder took minutes and
// ~95M allocations).
// Simulation appends replacement disks in place (Replace), so every
// disk has its final ID from the moment it exists.
package fleet

import (
	"fmt"

	"storagesubsys/internal/simtime"
)

// SystemClass is the capability/usage class of a storage system, as
// defined in the paper's Section 2.2.
type SystemClass int

// The four studied classes.
const (
	NearLine SystemClass = iota // secondary storage (backup), SATA disks
	LowEnd                      // primary, embedded storage heads, FC disks
	MidRange                    // primary, external shelves, FC disks
	HighEnd                     // primary, external shelves, FC disks
)

// Classes lists all system classes in display order.
var Classes = []SystemClass{NearLine, LowEnd, MidRange, HighEnd}

func (c SystemClass) String() string {
	switch c {
	case NearLine:
		return "Near-line"
	case LowEnd:
		return "Low-end"
	case MidRange:
		return "Mid-range"
	case HighEnd:
		return "High-end"
	default:
		return fmt.Sprintf("SystemClass(%d)", int(c))
	}
}

// DiskType is the disk interface technology.
type DiskType int

// Disk interface technologies in the studied population.
const (
	SATA DiskType = iota
	FC
)

func (t DiskType) String() string {
	switch t {
	case SATA:
		return "SATA"
	case FC:
		return "FC"
	default:
		return fmt.Sprintf("DiskType(%d)", int(t))
	}
}

// RAIDType is the resiliency scheme of a RAID group.
type RAIDType int

// RAID schemes supported by the studied systems.
const (
	RAID4 RAIDType = iota // single parity disk
	RAID6                 // double parity (row-diagonal parity)
)

func (t RAIDType) String() string {
	switch t {
	case RAID4:
		return "RAID4"
	case RAID6:
		return "RAID6"
	default:
		return fmt.Sprintf("RAIDType(%d)", int(t))
	}
}

// ParityDisks returns the number of disk failures the scheme tolerates.
func (t RAIDType) ParityDisks() int {
	if t == RAID6 {
		return 2
	}
	return 1
}

// PathConfig is the network redundancy configuration of a storage
// subsystem: whether shelves are connected to one FC network or to two
// independent ones (active/passive multipathing).
type PathConfig int

// Path configurations.
const (
	SinglePath PathConfig = iota
	DualPath
)

func (p PathConfig) String() string {
	if p == DualPath {
		return "dual-path"
	}
	return "single-path"
}

// DiskModel identifies a disk product at a particular capacity, e.g.
// "A-2". Family letters follow the paper's anonymized convention; the
// capacity ordinal orders capacities within a family.
type DiskModel struct {
	Family   string
	Capacity int
	Type     DiskType
}

func (m DiskModel) String() string { return fmt.Sprintf("%s-%d", m.Family, m.Capacity) }

// ShelfModel identifies a shelf enclosure product ("A", "B", "C"). All
// studied shelf models host at most 14 disks.
type ShelfModel string

// MaxDisksPerShelf is the slot count of every studied shelf model.
const MaxDisksPerShelf = 14

// Disk is one physical disk's residency in the fleet. When a disk fails
// and is replaced, the replacement is a new Disk value; the paper's
// "# Disks" counts every disk ever installed, and AFR denominators sum
// per-disk residency time, which this representation makes exact.
//
// Disk stores only what cannot be derived. Its ID is its index in
// Fleet.Disks, its model is the owning system's
// (f.Systems[d.System].DiskModel: systems are homogeneous and a
// replacement joins its predecessor's system) and its serial is
// Serial(id). Disks are the bulk of a fleet's memory, so the record is
// 32 bytes — component IDs as int32, which every scale up to the
// entry points' cap of 1.5 leaves far below 2^31 — and must stay
// pointer-free: the disk slabs are then allocated noscan and the
// garbage collector never walks them (TestDiskLayout pins both).
type Disk struct {
	Install  simtime.Seconds // when the disk entered service
	Remove   simtime.Seconds // when it left service (StudyDuration if still present)
	System   int32           // owning system ID
	Shelf    int32           // fleet-unique shelf ID
	RAIDGrp  int32           // fleet-unique RAID group ID, -1 if spare
	Slot     uint8           // 0..13 within the shelf
	Replaced bool            // true if this residency ended with a replacement
}

// Residency returns the disk's time in service, in simulation seconds.
func (d *Disk) Residency() simtime.Seconds {
	if d.Remove < d.Install {
		return 0
	}
	return d.Remove - d.Install
}

// ResidencyYears returns the disk's time in service in years — its
// contribution to AFR denominators.
func (d *Disk) ResidencyYears() float64 { return simtime.Years(d.Residency()) }

// Shelf is one shelf enclosure: power, cooling, backplane and intrashelf
// connectivity shared by the disks mounted in it. Its model is the
// owning system's ShelfModel.
type Shelf struct {
	ID     int // fleet-unique
	System int
	Index  int   // position within the system
	Disks  []int // fleet disk IDs currently or ever mounted, in install order
}

// RAIDGroup is a set of disks (data + parity) managed as one resiliency
// unit. Groups may span multiple shelves (Figure 8); ShelvesSpanned
// records how many distinct shelves hold its members.
type RAIDGroup struct {
	ID             int // fleet-unique
	System         int
	Type           RAIDType
	Disks          []int // fleet disk IDs (original members; replacements inherit the group)
	ShelvesSpanned int
}

// System is one deployed storage system: a set of shelves, the disks in
// them, RAID groups laid out across the shelves, and the network
// configuration of its storage subsystem.
type System struct {
	ID         int
	Class      SystemClass
	ShelfModel ShelfModel // every shelf of the system
	DiskModel  DiskModel  // every disk of the system, replacements included (the Figure 5/6 grouping unit)
	Paths      PathConfig
	Install    simtime.Seconds // deployment time
	Shelves    []int           // fleet shelf IDs
	RAIDGroups []int           // fleet RAID group IDs

	// ChurnPerDiskYear is the class's non-failure disk replacement rate,
	// copied from the profile at build time so the simulator can apply
	// it without re-resolving profiles.
	ChurnPerDiskYear float64
}

// ObservedYears returns how long the system was observed within the
// study window.
func (s *System) ObservedYears() float64 {
	return simtime.Years(simtime.StudyDuration - s.Install)
}

// Fleet is the full studied population: four value slabs, each indexed
// by its components' fleet-unique IDs, so lookups are O(1) slice
// indexing with no pointer index in between. A loop that mutates a
// component must index the slab (sh := &f.Shelves[i]): a range value is
// a copy, and a write to it is silently lost.
type Fleet struct {
	Systems []System
	Shelves []Shelf
	Disks   []Disk
	Groups  []RAIDGroup

	// Seed is the RNG seed the fleet was built with; together with the
	// profile set it fully determines the topology.
	Seed int64
}

// Checkpoint records a fleet's as-built population boundary so a
// simulated trial can be rolled back with Reset. Capture it right after
// Build, before any simulation has touched the fleet.
type Checkpoint struct {
	disks int
}

// Checkpoint captures the fleet's current population boundary.
func (f *Fleet) Checkpoint() Checkpoint { return Checkpoint{disks: len(f.Disks)} }

// Reset rolls the fleet back to a checkpoint taken before simulation:
// replacement disks installed since are dropped — from the fleet's disk
// slab and from their shelves' mount lists — and every surviving disk's
// residency is restored to the full study window. After Reset the fleet
// is indistinguishable from the freshly built topology, so re-simulating
// with the same seed reproduces the identical event stream, and
// re-simulating with a new seed yields an independent Monte-Carlo trial
// over the same population without paying for a rebuild (the sweep
// engine's steady state; see internal/sweep). The slabs keep their
// capacity, so the next trial's replacements append without
// reallocating.
func (f *Fleet) Reset(c Checkpoint) {
	for i := range f.Disks[:c.disks] {
		d := &f.Disks[i]
		d.Remove = simtime.StudyDuration
		d.Replaced = false
	}
	// Replacements are always appended to a shelf's mount list after the
	// as-built disks, so trimming trailing IDs past the boundary restores
	// the original list.
	for i := range f.Shelves {
		sh := &f.Shelves[i]
		n := len(sh.Disks)
		for n > 0 && sh.Disks[n-1] >= c.disks {
			n--
		}
		sh.Disks = sh.Disks[:n]
	}
	f.Disks = f.Disks[:c.disks]
}

// Replace installs a replacement for the failed disk and returns its
// ID, the next index of the disk slab. The new disk joins the failed
// one's system, shelf, slot and RAID group (and so its model), enters
// service at the given time and is appended to its shelf's mount list.
// Ending the failed disk's residency is the caller's job. The failed
// record is copied before the append can move the slab, so a *Disk
// held across a Replace may be stale afterwards: index f.Disks again.
//
//detlint:hotpath
func (f *Fleet) Replace(failed int, at simtime.Seconds) int {
	d := &f.Disks[failed]
	nd := Disk{
		System:  d.System,
		Shelf:   d.Shelf,
		Slot:    d.Slot,
		RAIDGrp: d.RAIDGrp,
		Install: at,
		Remove:  simtime.StudyDuration,
	}
	id := len(f.Disks)
	f.Disks = append(f.Disks, nd)
	sh := &f.Shelves[nd.Shelf]
	sh.Disks = append(sh.Disks, id)
	return id
}

// diskSlab returns a disk slab of length n with room for one trial's
// replacements appended in place: the calibrated model replaces about
// 6% of the as-built population per simulated study window, so an
// eighth more covers a default trial, and a heavy-churn scenario
// outgrows it once and then keeps the grown slab across Resets. Without
// the room, the first Replace into every fresh build or clone would
// copy the whole slab to grow it.
func diskSlab(n int) []Disk { return make([]Disk, n, n+n/8) }

// DiskYears returns the total disk residency (in years) matching the
// filter; a nil filter sums the whole fleet. This is the AFR denominator.
func (f *Fleet) DiskYears(filter func(*Disk) bool) float64 {
	total := 0.0
	for i := range f.Disks {
		if d := &f.Disks[i]; filter == nil || filter(d) {
			total += d.ResidencyYears()
		}
	}
	return total
}

// Stats summarizes the fleet population per class — the row structure of
// the paper's Table 1.
type Stats struct {
	Class     SystemClass
	Systems   int
	Shelves   int
	Disks     int // ever installed, matching the paper's convention
	Groups    int
	DualPath  int // systems configured with dual paths
	DiskYears float64
}

// PopulationStats returns per-class population summaries in class order.
func (f *Fleet) PopulationStats() []Stats {
	byClass := make(map[SystemClass]*Stats)
	for _, c := range Classes {
		byClass[c] = &Stats{Class: c}
	}
	for i := range f.Systems {
		s := &f.Systems[i]
		st := byClass[s.Class]
		st.Systems++
		st.Shelves += len(s.Shelves)
		st.Groups += len(s.RAIDGroups)
		if s.Paths == DualPath {
			st.DualPath++
		}
	}
	for i := range f.Disks {
		d := &f.Disks[i]
		st := byClass[f.Systems[d.System].Class]
		st.Disks++
		st.DiskYears += d.ResidencyYears()
	}
	out := make([]Stats, 0, len(Classes))
	for _, c := range Classes {
		out = append(out, *byClass[c])
	}
	return out
}
