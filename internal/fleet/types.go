// Package fleet models the population of storage systems the paper
// studies: four system classes, storage systems composed of shelf
// enclosures (up to 14 disks each), disks identified by family/model,
// RAID groups spanning shelves, and single/dual path network
// configuration. A Fleet is the static topology plus the deployment
// schedule; the failure simulator (internal/sim) animates it.
//
// Construction is parallel and allocation-lean. Every (class, system)
// pair draws from an RNG stream split off the seed by (class, system
// ordinal), so BuildWorkers shards system construction across a worker
// pool: each worker fills a private arena of value slabs wired by local
// indices (no per-component pointer allocations, RAID layout over
// recycled scratch), and the arenas are renumbered and spliced in shard
// order — bit-identical output for any worker count. The paper's full
// ~39,000-system / ~1.7M-disk population builds in well under a second
// per core with a small constant number of allocations (BENCH_PR3.json;
// the legacy serial builder took minutes and ~95M allocations).
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
// Disk stores only what cannot be derived. Its model is the owning
// system's (f.Systems[d.System].DiskModel: systems are homogeneous and a
// replacement joins its predecessor's system) and its serial is
// Serial(d.ID). Disks are the bulk of a fleet's memory, so the record is
// 64 bytes and must stay pointer-free: the build's disk slabs are then
// allocated noscan and the garbage collector never walks them
// (TestDiskLayout pins both).
type Disk struct {
	ID       int             // fleet-unique
	System   int             // owning system ID
	Shelf    int             // fleet-unique shelf ID
	Slot     int             // 0..13 within the shelf
	RAIDGrp  int             // fleet-unique RAID group ID, -1 if spare
	Install  simtime.Seconds // when the disk entered service
	Remove   simtime.Seconds // when it left service (StudyDuration if still present)
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

// Fleet is the full studied population. All component slices are indexed
// by their fleet-unique IDs, so lookups are O(1) slice indexing.
type Fleet struct {
	Systems []*System
	Shelves []*Shelf
	Disks   []*Disk
	Groups  []*RAIDGroup

	// Seed is the RNG seed the fleet was built with; together with the
	// profile set it fully determines the topology.
	Seed int64
}

// Checkpoint records a fleet's as-built population boundary so a
// simulated trial can be rolled back with Reset. Capture it right after
// BuildWorkers, before any simulation has touched the fleet.
type Checkpoint struct {
	disks int
}

// Checkpoint captures the fleet's current population boundary.
func (f *Fleet) Checkpoint() Checkpoint { return Checkpoint{disks: len(f.Disks)} }

// Reset rolls the fleet back to a checkpoint taken before simulation:
// replacement disks installed since are dropped — from the fleet's disk
// list and from their shelves' mount lists — and every surviving disk's
// residency is restored to the full study window. After Reset the fleet
// is indistinguishable from the freshly built topology, so re-simulating
// with the same seed reproduces the identical event stream, and
// re-simulating with a new seed yields an independent Monte-Carlo trial
// over the same population without paying for a rebuild (the sweep
// engine's steady state; see internal/sweep). The dropped replacement
// records become unreachable, which is what makes ReplacementArena
// recycling safe.
func (f *Fleet) Reset(c Checkpoint) {
	for _, d := range f.Disks[:c.disks] {
		d.Remove = simtime.StudyDuration
		d.Replaced = false
	}
	// Replacements are always appended to a shelf's mount list after the
	// as-built disks, so trimming trailing IDs past the boundary restores
	// the original list.
	for _, sh := range f.Shelves {
		n := len(sh.Disks)
		for n > 0 && sh.Disks[n-1] >= c.disks {
			n--
		}
		sh.Disks = sh.Disks[:n]
	}
	f.Disks = f.Disks[:c.disks]
}

// ReplacementArena accumulates replacement disks created by one
// simulation worker without mutating the shared Fleet, so workers over
// disjoint system shards need no synchronization. Disks receive
// provisional negative IDs (-1, -2, ...) in creation order;
// Fleet.CommitReplacements later assigns the final fleet-unique IDs.
// Reset rearms a committed arena for another simulation run, recycling
// the Disk records it has already created.
type ReplacementArena struct {
	disks []*Disk // every record ever created; [:live] belong to this run
	live  int
}

// Add records a replacement for the failed disk, joining the same
// system/shelf/slot/RAID group (and so the same model), entering
// service at the given time. The returned disk carries a provisional
// negative ID, finalized by Fleet.CommitReplacements. After a Reset, Add
// recycles the previous run's records instead of allocating.
//
//detlint:hotpath
func (a *ReplacementArena) Add(failed *Disk, at simtime.Seconds) *Disk {
	var nd *Disk
	if a.live < len(a.disks) {
		nd = a.disks[a.live]
	} else {
		//detlint:ignore hotalloc cold growth branch: allocates only until the arena reaches the run's high-water mark, then recycles forever
		nd = new(Disk)
		a.disks = append(a.disks, nd)
	}
	a.live++
	*nd = Disk{
		ID:      -a.live,
		System:  failed.System,
		Shelf:   failed.Shelf,
		Slot:    failed.Slot,
		RAIDGrp: failed.RAIDGrp,
		Install: at,
		Remove:  simtime.StudyDuration,
	}
	return nd
}

// Len returns the number of replacements recorded so far this run.
func (a *ReplacementArena) Len() int { return a.live }

// Disk returns the arena disk with the given provisional (negative) ID.
//
//detlint:hotpath
func (a *ReplacementArena) Disk(provisional int) *Disk { return a.disks[-provisional-1] }

// Reset empties the arena for another simulation run while keeping the
// Disk records it has created, which Add then recycles in creation
// order. It must only be called once any fleet the records were
// committed into has been Reset past them (or discarded) — otherwise
// two live fleets would alias the same records.
func (a *ReplacementArena) Reset() { a.live = 0 }

// CommitReplacements installs every arena disk into the fleet in
// creation order: final IDs are assigned and each disk is registered
// with its shelf. It returns the final ID given to the arena's first
// disk, so provisional ID -k maps to base+k-1. Committing
// arenas in system-ID order reproduces exactly the IDs a serial
// simulation would have assigned. An arena must be committed at most
// once per run; Reset rearms it.
//
//detlint:hotpath
func (f *Fleet) CommitReplacements(a *ReplacementArena) (base int) {
	base = len(f.Disks)
	for i, d := range a.disks[:a.live] {
		d.ID = base + i
		f.Disks = append(f.Disks, d)
		sh := f.Shelves[d.Shelf]
		sh.Disks = append(sh.Disks, d.ID)
	}
	return base
}

// DiskYears returns the total disk residency (in years) matching the
// filter; a nil filter sums the whole fleet. This is the AFR denominator.
func (f *Fleet) DiskYears(filter func(*Disk) bool) float64 {
	total := 0.0
	for _, d := range f.Disks {
		if filter == nil || filter(d) {
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
	for _, s := range f.Systems {
		st := byClass[s.Class]
		st.Systems++
		st.Shelves += len(s.Shelves)
		st.Groups += len(s.RAIDGroups)
		if s.Paths == DualPath {
			st.DualPath++
		}
	}
	for _, d := range f.Disks {
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
