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
// with the original: the five slabs are copied, the disk slab with a
// build's replacement room. Topology is addressed by spans and indexes,
// which stay valid in the copies, so simulating against the clone —
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
		Disks:   diskSlab(len(f.Disks), f.expectedChurn()),
		Groups:  slices.Clone(f.Groups),
		Members: slices.Clone(f.Members),
		Seed:    f.Seed,
	}
	copy(nf.Disks, f.Disks)
	return nf
}

// ApproxBytes estimates the fleet's resident memory: the capacities of
// its five slabs, the disk slab's replacement room included. That is
// everything the fleet stores, since disk IDs, serials, models and
// topology lists are derived rather than held. A build sizes the group
// and member slabs by an upper bound on the group count, so charging
// capacities covers the bound's slack. A byte-budgeted fleet cache
// charging one ApproxBytes per cached fleet thus tracks its real cost
// (TestApproxBytesMatchesHeap pins a build and a clone within 10% of
// their measured heap growth).
func (f *Fleet) ApproxBytes() int {
	return cap(f.Systems)*int(unsafe.Sizeof(System{})) +
		cap(f.Shelves)*int(unsafe.Sizeof(Shelf{})) +
		cap(f.Disks)*int(unsafe.Sizeof(Disk{})) +
		cap(f.Groups)*int(unsafe.Sizeof(RAIDGroup{})) +
		cap(f.Members)*int(unsafe.Sizeof(int32(0)))
}
