package fleet

// Fleet sharing: the substrate of Shared (shared.go). A fleet's
// topology — its systems, shelves, RAID groups and member lists — is
// written by Build and never after: simulation, Remove, Replace and
// Reset write only the fleet's delta. So every fleet cut from one build
// shares the build's four topology slabs, and only a delta belongs to
// one owner. Building a population is generative work (profile
// resolution, per-system RNG draws, RAID layout); cutting another fleet
// from it copies four slice headers.

import "unsafe"

// Clone returns a fleet that shares f's topology slabs and owns an
// empty delta: the as-built population. Clone never reads f's delta, so
// it may run while another goroutine simulates on f.
//
// The topology is read-only in every fleet that shares it. A clone's
// delta is its own: removing disks, appending replacements and Reset
// never touch another fleet. A clone is indistinguishable from a fleet
// freshly built with the same profiles, scale, and seed, so a trial run
// on a clone produces bit-identical output to one run on a fresh build
// (TestCloneTrialEquivalence pins this).
func (f *Fleet) Clone() *Fleet {
	return &Fleet{
		Systems: f.Systems,
		Shelves: f.Shelves,
		Groups:  f.Groups,
		Members: f.Members,
		Seed:    f.Seed,
	}
}

// ApproxBytes estimates the fleet's resident memory: the capacities of
// its four topology slabs and of its delta. That is everything the
// fleet stores, since as-built disk records, disk IDs, serials, models
// and topology lists are derived rather than held. A build sizes the
// group and member slabs by an upper bound on the group count, so
// charging capacities covers the bound's slack. Clones share their
// topology, so a freshly built fleet's ApproxBytes is what one key
// costs whatever number of fleets are cut from it, and each fleet adds
// its delta (TestApproxBytesMatchesHeap pins a build within 10% of its
// measured heap growth, and a trial's delta within 10% of its own).
func (f *Fleet) ApproxBytes() int {
	return cap(f.Systems)*int(unsafe.Sizeof(System{})) +
		cap(f.Shelves)*int(unsafe.Sizeof(Shelf{})) +
		cap(f.Groups)*int(unsafe.Sizeof(RAIDGroup{})) +
		cap(f.Members)*int(unsafe.Sizeof(int32(0))) +
		cap(f.removed)*int(unsafe.Sizeof(removal{})) +
		cap(f.repl)*int(unsafe.Sizeof(Disk{}))
}
