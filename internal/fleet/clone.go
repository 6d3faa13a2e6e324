package fleet

// Fleet cloning: the substrate behind the sweepd control plane's
// cross-job fleet cache. Building a population is generative work
// (profile resolution, per-system RNG draws, RAID layout); copying one
// is a handful of slab memcpys. The cache therefore builds each
// topology once, keeps the pristine as-built fleet, and hands every
// requester an exclusively-owned Clone — concurrent sweeps over the
// same topology share the build cost without sharing mutable state.

import "unsafe"

// Clone returns a deep copy of the fleet that shares no mutable state
// with the original: component structs are copied into fresh value
// slabs and every ID slice (shelf mount lists, system shelf/group
// lists, RAID group membership) is duplicated, so simulating against
// the clone — failing disks, committing replacements, Reset — never
// touches the original.
//
// Cloning a pristine as-built fleet yields a fleet indistinguishable
// from one freshly built with the same profiles, scale, and seed:
// every ID and install time is equal, so a trial run on a clone
// produces bit-identical output to one run on the original
// (TestCloneTrialEquivalence pins this).
func (f *Fleet) Clone() *Fleet {
	nf := &Fleet{
		Systems: make([]*System, len(f.Systems)),
		Shelves: make([]*Shelf, len(f.Shelves)),
		Disks:   make([]*Disk, len(f.Disks)),
		Groups:  make([]*RAIDGroup, len(f.Groups)),
		Seed:    f.Seed,
	}
	systems := make([]System, len(f.Systems))
	for i, s := range f.Systems {
		systems[i] = *s
		systems[i].Shelves = append([]int(nil), s.Shelves...)
		systems[i].RAIDGroups = append([]int(nil), s.RAIDGroups...)
		nf.Systems[i] = &systems[i]
	}
	shelves := make([]Shelf, len(f.Shelves))
	for i, sh := range f.Shelves {
		shelves[i] = *sh
		shelves[i].Disks = append([]int(nil), sh.Disks...)
		nf.Shelves[i] = &shelves[i]
	}
	disks := make([]Disk, len(f.Disks))
	for i, d := range f.Disks {
		disks[i] = *d
		nf.Disks[i] = &disks[i]
	}
	groups := make([]RAIDGroup, len(f.Groups))
	for i, g := range f.Groups {
		groups[i] = *g
		groups[i].Disks = append([]int(nil), g.Disks...)
		nf.Groups[i] = &groups[i]
	}
	return nf
}

// ApproxBytes estimates the fleet's resident memory: component struct
// slabs, pointer indexes, and ID slices — everything the fleet stores,
// since disk serials and models are derived rather than held. Built
// fleets and clones both keep their slabs at exact length, so a
// byte-budgeted fleet cache charging one ApproxBytes per cached fleet
// tracks its real cost (TestApproxBytesMatchesHeap pins a build within
// 10% of its measured heap growth).
func (f *Fleet) ApproxBytes() int {
	const ptr = int(unsafe.Sizeof(uintptr(0)))
	n := len(f.Systems)*(int(unsafe.Sizeof(System{}))+ptr) +
		len(f.Shelves)*(int(unsafe.Sizeof(Shelf{}))+ptr) +
		len(f.Disks)*(int(unsafe.Sizeof(Disk{}))+ptr) +
		len(f.Groups)*(int(unsafe.Sizeof(RAIDGroup{}))+ptr)
	for _, s := range f.Systems {
		n += 8 * (len(s.Shelves) + len(s.RAIDGroups))
	}
	for _, sh := range f.Shelves {
		n += 8 * len(sh.Disks)
	}
	for _, g := range f.Groups {
		n += 8 * len(g.Disks)
	}
	return n
}
