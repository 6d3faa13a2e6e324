package fleet

// Fleet sharing: the substrate of Shared (shared.go). A fleet's
// topology — its systems, shelves, RAID groups and member lists — is
// written by Build and never after: simulation, Replace and Reset write
// only the disk slab. So every fleet cut from one build shares the
// build's four topology slabs, and only a disk slab belongs to one
// owner. Building a population is generative work (profile resolution,
// per-system RNG draws, RAID layout); cutting another fleet from it is
// one pass over its shelves and groups writing a fresh as-built disk
// slab.

import (
	"unsafe"

	"storagesubsys/internal/simtime"
)

// Clone returns a fleet that shares f's topology slabs and owns a
// fresh as-built disk slab, with a build's replacement room. The disk
// slab is derived from the topology alone (asBuiltDisks); Clone never
// reads f.Disks, so it may run while another goroutine simulates on f,
// and f may be a topology.
//
// The topology is read-only in every fleet that shares it. A clone's
// disks are its own: failing them, appending replacements and Reset
// never touch another fleet. A clone is indistinguishable from a fleet
// freshly built with the same profiles, scale, and seed, so a trial run
// on a clone produces bit-identical output to one run on a fresh build
// (TestCloneTrialEquivalence pins this).
func (f *Fleet) Clone() *Fleet {
	nf := f.topology()
	nf.Disks = f.asBuiltDisks()
	return nf
}

// topology returns a fleet that shares f's topology slabs and has no
// disk slab: what a Shared keeps to cut clones from without pinning any
// owner's disks. Anything that reads disks needs a Clone.
func (f *Fleet) topology() *Fleet {
	return &Fleet{
		Systems: f.Systems,
		Shelves: f.Shelves,
		Groups:  f.Groups,
		Members: f.Members,
		Seed:    f.Seed,
	}
}

// asBuiltDisks derives the as-built disk slab from the topology: a
// disk's shelf and slot from the shelf spans, its install time from
// its system, its RAID group from the groups' member windows, and its
// removal at the study's end. It is the one source of as-built disk
// values: Build ends with it and Clone calls it.
func (f *Fleet) asBuiltDisks() []Disk {
	disks := diskSlab(f.asBuilt(), f.expectedChurn())
	// System by system, so a system's group members are written while
	// its disks are still in cache.
	for si := range f.Systems {
		sys := &f.Systems[si]
		install := int32(sys.Install)
		for _, sh := range f.Shelves[sys.Shelves.Lo:sys.Shelves.Hi] {
			ds := disks[sh.Disks.Lo:sh.Disks.Hi]
			for slot := range ds {
				// Field by field into the fresh, zeroed slab (Replaced
				// stays false): a composite-literal store goes through
				// a stack temporary and costs about four times as much.
				d := &ds[slot]
				d.Install = install
				d.Remove = int32(simtime.StudyDuration)
				d.Shelf = sh.ID
				d.RAIDGrp = -1
				d.Slot = uint8(slot)
			}
		}
		for _, g := range f.Groups[sys.RAIDGroups.Lo:sys.RAIDGroups.Hi] {
			for _, id := range f.Members[g.Members.Lo:g.Members.Hi] {
				disks[id].RAIDGrp = g.ID
			}
		}
	}
	return disks
}

// ApproxBytes estimates the fleet's resident memory: the capacities of
// its five slabs, the disk slab's replacement room included. That is
// everything the fleet stores, since disk IDs, serials, models and
// topology lists are derived rather than held. A build sizes the group
// and member slabs by an upper bound on the group count, so charging
// capacities covers the bound's slack. Clones share their topology, so
// a topology's ApproxBytes is what one key costs whatever number of
// fleets are cut from it, and each fleet adds its disk slab
// (TestApproxBytesMatchesHeap pins a build within 10% of its measured
// heap growth, and a clone's disk slab within 10% of its own).
func (f *Fleet) ApproxBytes() int {
	return cap(f.Systems)*int(unsafe.Sizeof(System{})) +
		cap(f.Shelves)*int(unsafe.Sizeof(Shelf{})) +
		cap(f.Disks)*int(unsafe.Sizeof(Disk{})) +
		cap(f.Groups)*int(unsafe.Sizeof(RAIDGroup{})) +
		cap(f.Members)*int(unsafe.Sizeof(int32(0)))
}
