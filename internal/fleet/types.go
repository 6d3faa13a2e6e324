// Package fleet models the population of storage systems the paper
// studies: four system classes, storage systems composed of shelf
// enclosures (up to 14 disks each), disks identified by family/model,
// RAID groups spanning shelves, and single/dual path network
// configuration. A Fleet is the static topology plus the deployment
// schedule; the failure simulator (internal/sim) animates it.
//
// A Fleet's topology is four value slabs — systems, shelves, RAID
// groups and group members — each indexed by component ID, with no
// pointer index over them. Topology is addressed by spans of
// consecutive IDs: a system's shelves and groups, a shelf's as-built
// disks and a group's window of the member slab, so no component holds
// an ID list of its own.
//
// The topology is written by Build and never after, and it determines
// every as-built disk, so no fleet stores a disk slab. Simulation
// writes only the fleet's delta: the as-built disks it removed early
// and the 20-byte records of the replacements it installed. Every
// fleet cut from one build (Clone) shares its topology read-only and
// owns a delta of its own, so one population costs one topology however
// many trials run on it at once, and a trial costs what it changed.
//
// Construction is parallel, independent of the processor count, and
// allocation-lean. Every (class, system) pair draws from an RNG stream
// split off the seed by (class, system ordinal), so a run of
// consecutive systems is a pure function of its range. Build replays
// those streams twice over chunks of such runs, on GOMAXPROCS
// goroutines: a census sizes every slab exactly, then a fill writes
// each component straight into its final slab, wired by index (no
// per-component pointer allocations, RAID layout over recycled
// per-worker scratch), and a short serial pass closes the slack the
// RAID-group bound left between chunks. So a build allocates little
// beyond the fleet itself, and its bytes are the same for any
// processor count and any chunking. The paper's full ~39,000-system /
// ~1.7M-disk population builds in tens of milliseconds with a small
// constant number of allocations (the legacy pointer-per-item builder
// took minutes and ~95M allocations).
// Simulation appends replacement disks to the delta (Replace), so every
// disk has its final ID from the moment it exists. Replacements lie
// past every as-built disk in shelf order; ShelfDisks finds a shelf's
// by their Shelf field.
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

// Span is the half-open range [Lo, Hi) of consecutive component IDs.
// A system's shelves and RAID groups, a shelf's as-built disks and a
// RAID group's window of Fleet.Members are each numbered consecutively
// in build order, so a span addresses them without an ID list.
type Span struct{ Lo, Hi int32 }

// Len returns the number of IDs in the span.
func (s Span) Len() int { return int(s.Hi - s.Lo) }

// Disk records store their times as 32-bit seconds: this fails to
// compile if the study window outgrows them.
const _ = int32(simtime.StudyDuration)

// Disk is one physical disk's residency in the fleet. When a disk fails
// and is replaced, the replacement is a new Disk value; the paper's
// "# Disks" counts every disk ever installed, and AFR denominators sum
// per-disk residency time, which this representation makes exact.
//
// A Disk is a value Fleet.Disk returns; no fleet holds a slab of them.
// An as-built disk's record is derived from the topology and the
// fleet's removals, and only a replacement's is stored, in the fleet's
// delta. The record holds no ID (disks are numbered 0..NumDisks()-1),
// its system is its shelf's (f.Shelves[d.Shelf].System), its model is
// that system's (systems are homogeneous and a replacement joins its
// predecessor's shelf) and its serial is Serial(id). It is 20 bytes —
// times as int32 seconds (the study window is about 5% of their range)
// and component IDs as int32, which Build checks — and must stay
// pointer-free, so the replacement records are allocated noscan and
// the garbage collector never walks them (TestDiskLayout pins both).
type Disk struct {
	Install  int32 // when the disk entered service, in simulation seconds
	Remove   int32 // when it left service (StudyDuration if still present)
	Shelf    int32 // fleet-unique shelf ID
	RAIDGrp  int32 // fleet-unique RAID group ID, -1 if spare
	Slot     uint8 // 0..13 within the shelf
	Replaced bool  // true if this residency ended with a replacement
}

// Residency returns the disk's time in service, in simulation seconds.
func (d *Disk) Residency() simtime.Seconds {
	if d.Remove < d.Install {
		return 0
	}
	return simtime.Seconds(d.Remove) - simtime.Seconds(d.Install)
}

// ResidencyYears returns the disk's time in service in years — its
// contribution to AFR denominators.
func (d *Disk) ResidencyYears() float64 { return simtime.Years(d.Residency()) }

// Shelf is one shelf enclosure: power, cooling, backplane and intrashelf
// connectivity shared by the disks mounted in it. Its model is the
// owning system's ShelfModel. Disks spans the shelf's as-built disks,
// one per occupied slot in slot order; its replacements lie past every
// as-built disk (see Fleet.ShelfDisks).
type Shelf struct {
	ID     int32 // fleet-unique
	System int32
	Index  int32 // position within the system
	Disks  Span  // as-built disk IDs
}

// RAIDGroup is a set of disks (data + parity) managed as one resiliency
// unit. Groups may span multiple shelves (Figure 8); ShelvesSpanned
// records how many distinct shelves hold its members.
type RAIDGroup struct {
	ID             int32 // fleet-unique
	System         int32
	Type           RAIDType
	Members        Span // window of Fleet.Members: the original members' disk IDs (replacements inherit the group)
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
	Shelves    Span            // fleet shelf IDs
	RAIDGroups Span            // fleet RAID group IDs

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

// Fleet is the full studied population. Systems, Shelves, Groups and
// Members are the topology: value slabs indexed by their components'
// fleet-unique IDs, read-only after Build and shared by every Clone of
// the build, so no fleet may write them. Only Systems holds pointers
// (its model strings), so the garbage collector scans no other slab.
//
// A fleet holds no disk slab. An as-built disk's record is derived from
// the topology, and what a trial changes is the fleet's own delta: the
// as-built disks it took out early and the replacements it installed
// (Remove, Replace). Read disks through Disk, NumDisks, ShelfDisks and
// EachRun.
type Fleet struct {
	Systems []System
	Shelves []Shelf
	Groups  []RAIDGroup
	Members []int32 // RAID group members' disk IDs, group after group

	// Seed is the RNG seed the fleet was built with; together with the
	// profile set it fully determines the topology.
	Seed int64

	// The delta this fleet alone owns (delta.go).
	removed []removal // as-built disks taken out early, in ascending ID order
	repl    []Disk    // replacement disks: repl[k] has ID asBuilt()+k
}

// asBuilt returns the number of as-built disks: the last shelf's span
// ends where the replacements begin.
func (f *Fleet) asBuilt() int {
	if len(f.Shelves) == 0 {
		return 0
	}
	return int(f.Shelves[len(f.Shelves)-1].Disks.Hi)
}

// NumDisks returns the number of disks ever installed in the fleet, the
// as-built ones and the replacements; disk IDs are 0..NumDisks()-1.
//
//detlint:hotpath
func (f *Fleet) NumDisks() int { return f.asBuilt() + len(f.repl) }
