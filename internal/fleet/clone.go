package fleet

// Fleet cloning: the substrate behind the sweepd control plane's
// cross-job fleet cache. Building a population is generative work
// (profile resolution, per-system RNG draws, RAID layout); copying one
// is a handful of slab memcpys. The cache therefore builds each
// topology once, keeps the pristine as-built fleet, and hands every
// requester an exclusively-owned Clone — concurrent sweeps over the
// same topology share the build cost without sharing mutable state.

import (
	"slices"
	"unsafe"
)

// Clone returns a deep copy of the fleet that shares no mutable state
// with the original: the four component slabs are copied (the disk slab
// with a build's replacement room), and every ID list (shelf mount
// lists, system shelf/group lists, RAID group membership) is copied into
// one flat backing per list kind, so simulating against the clone —
// failing disks, appending replacements, Reset — never touches the
// original.
//
// Cloning a pristine as-built fleet yields a fleet indistinguishable
// from one freshly built with the same profiles, scale, and seed:
// every ID and install time is equal, so a trial run on a clone
// produces bit-identical output to one run on the original
// (TestCloneTrialEquivalence pins this).
func (f *Fleet) Clone() *Fleet {
	nf := &Fleet{
		Systems: slices.Clone(f.Systems),
		Shelves: slices.Clone(f.Shelves),
		Disks:   diskSlab(len(f.Disks)),
		Groups:  slices.Clone(f.Groups),
		Seed:    f.Seed,
	}
	copy(nf.Disks, f.Disks)
	repack(nf.Systems, 0, func(s *System) *[]int { return &s.Shelves })
	repack(nf.Systems, 0, func(s *System) *[]int { return &s.RAIDGroups })
	repack(nf.Shelves, mountRoom, func(sh *Shelf) *[]int { return &sh.Disks })
	repack(nf.Groups, 0, func(g *RAIDGroup) *[]int { return &g.Disks })
	return nf
}

// repack replaces the ID list that list selects in every item with a
// copy carved out of one exact-length backing, each copy followed by
// room spare slots — the layout a build leaves — so a clone costs four
// ID allocations rather than one per list. Empty lists become nil, as
// in a build.
func repack[T any](items []T, room int, list func(*T) *[]int) {
	n := 0
	for i := range items {
		if l := len(*list(&items[i])); l > 0 {
			n += l + room
		}
	}
	slab := make([]int, n)
	off := 0
	for i := range items {
		l := list(&items[i])
		if len(*l) == 0 {
			*l = nil
			continue
		}
		*l = carve(slab, off, copy(slab[off:], *l), room)
		off += len(*l) + room
	}
}

// ApproxBytes estimates the fleet's resident memory: the component
// slabs and the ID lists, the disk slab and shelf mount lists at their
// capacity (replacement room included) — everything the fleet stores,
// since disk IDs, serials and models are derived rather than held.
// Built fleets and clones keep every other slab and ID backing at exact
// length, so a byte-budgeted fleet cache charging one ApproxBytes per
// cached fleet tracks its real cost (TestApproxBytesMatchesHeap pins a
// build and a clone within 10% of their measured heap growth).
func (f *Fleet) ApproxBytes() int {
	n := len(f.Systems)*int(unsafe.Sizeof(System{})) +
		len(f.Shelves)*int(unsafe.Sizeof(Shelf{})) +
		cap(f.Disks)*int(unsafe.Sizeof(Disk{})) +
		len(f.Groups)*int(unsafe.Sizeof(RAIDGroup{}))
	for i := range f.Systems {
		n += 8 * (len(f.Systems[i].Shelves) + len(f.Systems[i].RAIDGroups))
	}
	for i := range f.Shelves {
		n += 8 * cap(f.Shelves[i].Disks)
	}
	for i := range f.Groups {
		n += 8 * len(f.Groups[i].Disks)
	}
	return n
}
