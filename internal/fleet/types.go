// Package fleet models the population of storage systems the paper
// studies: four system classes, storage systems composed of shelf
// enclosures (up to 14 disks each), disks identified by family/model,
// RAID groups spanning shelves, and single/dual path network
// configuration. A Fleet is the static topology plus the deployment
// schedule; the failure simulator (internal/sim) animates it.
//
// A Fleet is five value slabs — systems, shelves, disks, RAID groups
// and group members — each indexed by component ID, with no pointer
// index over them. A disk's ID is its index in the disk slab and is
// not stored; the disk record is 20 pointer-free bytes. Topology is
// addressed by spans of consecutive IDs: a system's shelves and
// groups, a shelf's as-built disks and a group's window of the member
// slab, so no component holds an ID list of its own.
//
// The four topology slabs (systems, shelves, groups, members) are
// written by Build and never after; simulation writes only the disk
// slab. Every fleet cut from one build (Clone) shares its topology
// read-only and owns a disk slab of its own, so one population costs
// one topology however many trials run on it at once.
//
// Construction is serial and allocation-lean. Every (class, system)
// pair draws from an RNG stream split off the seed by (class, system
// ordinal). Build replays those streams twice: a census sizes every
// slab exactly, then a fill writes each component straight into its
// final slab, wired by index (no per-component pointer allocations,
// RAID layout over recycled scratch), so a build allocates little
// beyond the fleet itself. The paper's full ~39,000-system /
// ~1.7M-disk population builds in well under a second on one core with
// a small constant number of allocations (the legacy pointer-per-item
// builder took minutes and ~95M allocations).
// Simulation appends replacement disks in place (Replace), so every
// disk has its final ID from the moment it exists. Replacements lie
// past every as-built disk in shelf order; ShelfDisks finds a shelf's
// by their Shelf field.
package fleet

import (
	"cmp"
	"fmt"
	"slices"

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
// Disk stores only what cannot be derived. Its ID is its index in
// Fleet.Disks, its system is its shelf's (f.Shelves[d.Shelf].System),
// its model is that system's (systems are homogeneous and a
// replacement joins its predecessor's shelf) and its serial is
// Serial(id). Disks are the bulk of a fleet's memory, so the record is
// 20 bytes — times as int32 seconds (the study window is about 5% of
// their range) and component IDs as int32, which Build checks — and
// must stay pointer-free: the disk slabs are then allocated noscan and
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

// Fleet is the full studied population: five value slabs, each indexed
// by its components' fleet-unique IDs, so lookups are O(1) slice
// indexing with no pointer index in between. Systems, Shelves, Groups
// and Members are the topology: read-only after Build and shared by
// every Clone of the build, so no fleet may write them. Disks belongs
// to this fleet alone. A loop that mutates a disk must index the slab
// (d := &f.Disks[i]): a range value is a copy, and a write to it is
// silently lost. Only Systems holds pointers (its model strings), so
// the garbage collector scans no other slab.
type Fleet struct {
	Systems []System
	Shelves []Shelf
	Disks   []Disk
	Groups  []RAIDGroup
	Members []int32 // RAID group members' disk IDs, group after group

	// Seed is the RNG seed the fleet was built with; together with the
	// profile set it fully determines the topology.
	Seed int64
}

// asBuilt returns the number of as-built disks: the last shelf's span
// ends where the replacements begin.
func (f *Fleet) asBuilt() int {
	if len(f.Shelves) == 0 {
		return 0
	}
	return int(f.Shelves[len(f.Shelves)-1].Disks.Hi)
}

// ShelfDisks appends to dst the IDs of every disk ever mounted in the
// shelf — its as-built span, then its replacements in install order —
// and returns the extended slice. The IDs ascend. Replacements are
// installed in shelf order (Replace enforces it), so a binary search
// finds the shelf's. It serves one-off readers; the simulator walks a
// shelf's as-built span instead.
func (f *Fleet) ShelfDisks(dst []int, shelf int) []int {
	s := f.Shelves[shelf].Disks
	for id := s.Lo; id < s.Hi; id++ {
		dst = append(dst, int(id))
	}
	base := f.asBuilt()
	repl := f.Disks[base:]
	i, _ := slices.BinarySearchFunc(repl, int32(shelf), func(d Disk, shelf int32) int { return cmp.Compare(d.Shelf, shelf) })
	for ; i < len(repl) && int(repl[i].Shelf) == shelf; i++ {
		dst = append(dst, base+i)
	}
	return dst
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
// replacement disks installed since are dropped from the disk slab, and
// every surviving disk's residency is restored to the full study
// window. After Reset the fleet is indistinguishable from the freshly
// built topology, so re-simulating with the same seed reproduces the
// identical event stream, and re-simulating with a new seed yields an
// independent Monte-Carlo trial over the same population without
// paying for a rebuild (the sweep engine's steady state; see
// internal/sweep). The disk slab keeps its capacity, so the next
// trial's replacements append without reallocating.
func (f *Fleet) Reset(c Checkpoint) {
	for i := range f.Disks[:c.disks] {
		d := &f.Disks[i]
		d.Remove = int32(simtime.StudyDuration)
		d.Replaced = false
	}
	f.Disks = f.Disks[:c.disks]
}

// Replace installs a replacement for the failed disk and returns its
// ID, the next index of the disk slab. The new disk joins the failed
// one's shelf, slot and RAID group (and so its system and model) and
// enters service at the given time, which must lie in the study
// window. Replacements must arrive in shelf order, as the simulator,
// walking shelves in ID order, installs them; Replace panics on one
// that would precede the last replacement's shelf. Ending the failed
// disk's residency is the caller's job. The failed record is copied
// before the append can move the slab, so a *Disk held across a
// Replace may be stale afterwards: index f.Disks again.
//
//detlint:hotpath
func (f *Fleet) Replace(failed int, at simtime.Seconds) int {
	d := &f.Disks[failed]
	if n := len(f.Disks); n > f.asBuilt() && f.Disks[n-1].Shelf > d.Shelf {
		panic("fleet: replacements must be installed in shelf order")
	}
	nd := Disk{
		Shelf:   d.Shelf,
		Slot:    d.Slot,
		RAIDGrp: d.RAIDGrp,
		Install: int32(at),
		Remove:  int32(simtime.StudyDuration),
	}
	id := len(f.Disks)
	f.Disks = append(f.Disks, nd)
	return id
}

// diskSlab returns a disk slab of length n with room for one trial's
// replacements appended in place: the churn the fleet's systems expect
// (their summed expectedChurn) plus n/16 for failure replacements and
// the spread of both draws. The calibrated model's failures replace
// about 2% of the as-built disks per simulated study window (about 3%
// with disk AFRs doubled). A scenario that outgrows the room regrows
// the slab once and then keeps the grown slab across Resets.
// Without the room, the first Replace into every fresh build or clone
// would copy the whole slab to grow it.
func diskSlab(n int, churn float64) []Disk { return make([]Disk, n, n+int(churn)+n/16) }

// expectedChurn is the number of non-failure replacements a system of
// the given disk count expects over its observed years.
func (s *System) expectedChurn(disks int) float64 {
	return float64(disks) * s.ChurnPerDiskYear * s.ObservedYears()
}

// expectedChurn sums the systems' expectedChurn in ID order, counting
// each system's as-built disks through its shelves' spans. It sizes
// the replacement room of every as-built disk slab (asBuiltDisks).
func (f *Fleet) expectedChurn() float64 {
	churn := 0.0
	for i := range f.Systems {
		s := &f.Systems[i]
		n := 0
		for _, sh := range f.Shelves[s.Shelves.Lo:s.Shelves.Hi] {
			n += sh.Disks.Len()
		}
		churn += s.expectedChurn(n)
	}
	return churn
}
