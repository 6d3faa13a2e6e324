package fleet

// A trial's delta. The topology fixes every as-built disk's record: its
// shelf and slot by the shelf spans, its install time by its system and
// its RAID group by the member windows. A trial changes only a few
// percent of those disks, so a fleet stores just what the trial changed:
// the as-built disks it took out early, and the replacement records,
// whose IDs follow every as-built disk in shelf order. Reading a disk
// derives its record (Disk); the one pass over every disk sums exposure
// (AddExposure).

import (
	"cmp"
	"slices"

	"storagesubsys/internal/simtime"
)

// removal is an as-built disk's early end of service.
type removal struct {
	id       int32
	at       int32 // the disk's Remove
	replaced bool  // the disk's Replaced
}

// Disk returns the record of the disk with the given ID, which must be
// below NumDisks. An as-built disk's record is derived from the
// topology and the fleet's removals; a replacement's is stored.
//
//detlint:hotpath
func (f *Fleet) Disk(id int) Disk {
	base := f.asBuilt()
	if id >= base {
		return f.repl[id-base]
	}
	shelf := f.shelfOf(int32(id))
	sh := &f.Shelves[shelf]
	sys := &f.Systems[sh.System]
	d := Disk{
		Install: int32(sys.Install),
		Remove:  int32(simtime.StudyDuration),
		Shelf:   int32(shelf),
		RAIDGrp: f.groupOf(sys, int32(id)),
		Slot:    uint8(id - int(sh.Disks.Lo)),
	}
	if r := f.removed; len(r) > 0 {
		// The last removal at or below id, by a search whose steps
		// compile to conditional moves.
		i, n := 0, len(r)
		for n > 1 {
			half := n / 2
			if r[i+half].id <= int32(id) {
				i += half
			}
			n -= half
		}
		if r[i].id == int32(id) {
			d.Remove, d.Replaced = r[i].at, r[i].replaced
		}
	}
	return d
}

// shelfOf returns the shelf whose as-built span holds the disk: the
// first shelf whose span ends past it, since the spans are consecutive
// in shelf order. The disk must be as-built.
//
//detlint:hotpath
func (f *Fleet) shelfOf(id int32) int {
	i, n := 0, len(f.Shelves)
	for n > 1 {
		half := n / 2
		if f.Shelves[i+half-1].Disks.Hi <= id {
			i += half
		}
		n -= half
	}
	return i
}

// groupOf returns the RAID group of the system's as-built disk, or -1
// for a spare: a scan of the system's member windows, which are
// consecutive in the member slab and hold at most a few hundred IDs.
// Every group of a system has its class's RAIDGroupSize members, so
// the disk's position in the windows names its group.
//
//detlint:hotpath
func (f *Fleet) groupOf(sys *System, id int32) int32 {
	groups := f.Groups[sys.RAIDGroups.Lo:sys.RAIDGroups.Hi]
	if len(groups) == 0 {
		return -1
	}
	k := slices.Index(f.Members[groups[0].Members.Lo:groups[len(groups)-1].Members.Hi], id)
	if k < 0 {
		return -1
	}
	return sys.RAIDGroups.Lo + int32(k/groups[0].Members.Len())
}

// SystemGroups appends to dst the RAID group of each of the system's
// as-built disks, in ID order from the system's first disk (-1 for a
// spare), and returns the extended slice. A replacement joins its
// predecessor's slot and group, so the table names the group of every
// disk a slot ever holds.
//
//detlint:hotpath
func (f *Fleet) SystemGroups(dst []int32, sys *System) []int32 {
	if sys.Shelves.Len() == 0 {
		return dst
	}
	first := f.Shelves[sys.Shelves.Lo].Disks.Lo
	n := len(dst)
	for range f.Shelves[sys.Shelves.Hi-1].Disks.Hi - first {
		dst = append(dst, -1)
	}
	grp := dst[n:]
	for gi := sys.RAIDGroups.Lo; gi < sys.RAIDGroups.Hi; gi++ {
		g := &f.Groups[gi]
		for _, id := range f.Members[g.Members.Lo:g.Members.Hi] {
			grp[id-first] = gi
		}
	}
	return dst
}

// ShelfDisks appends to dst the IDs of every disk ever mounted in the
// shelf — its as-built span, then its replacements in install order —
// and returns the extended slice. The IDs ascend. Replacements are
// installed in shelf order (Replace enforces it), so a binary search
// finds the shelf's.
func (f *Fleet) ShelfDisks(dst []int, shelf int) []int {
	s := f.Shelves[shelf].Disks
	for id := s.Lo; id < s.Hi; id++ {
		dst = append(dst, int(id))
	}
	base := f.asBuilt()
	i, _ := slices.BinarySearchFunc(f.repl, int32(shelf), func(d Disk, shelf int32) int { return cmp.Compare(d.Shelf, shelf) })
	for ; i < len(f.repl) && int(f.repl[i].Shelf) == shelf; i++ {
		dst = append(dst, base+i)
	}
	return dst
}

// Remove ends the disk's residency at the given time; replaced records
// whether a replacement follows it. As-built disks must be removed at
// most once each and in ascending ID order, as the simulator, walking
// slots in ID order, removes them; Remove panics otherwise.
//
//detlint:hotpath
func (f *Fleet) Remove(id int, at simtime.Seconds, replaced bool) {
	if base := f.asBuilt(); id >= base {
		d := &f.repl[id-base]
		d.Remove, d.Replaced = int32(at), replaced
		return
	}
	if n := len(f.removed); n > 0 && int(f.removed[n-1].id) >= id {
		panic("fleet: as-built disks must be removed once each, in ID order")
	}
	f.removed = append(f.removed, removal{id: int32(id), at: int32(at), replaced: replaced})
}

// Replace installs a replacement for the failed disk, whose record
// (as Disk returns it) the caller passes, and returns the new disk's
// ID, NumDisks before the call. The new disk joins the failed one's
// shelf, slot and RAID group (and so its system and model) and enters
// service at the given time, which must lie in the study window.
// Replacements must arrive in shelf order, as the simulator, walking
// shelves in ID order, installs them; Replace panics on one that would
// precede the last replacement's shelf. Ending the failed disk's
// residency is the caller's job (Remove).
//
//detlint:hotpath
func (f *Fleet) Replace(failed Disk, at simtime.Seconds) int {
	if n := len(f.repl); n > 0 && f.repl[n-1].Shelf > failed.Shelf {
		panic("fleet: replacements must be installed in shelf order")
	}
	id := f.NumDisks()
	f.repl = append(f.repl, Disk{
		Install: int32(at),
		Remove:  int32(simtime.StudyDuration),
		Shelf:   failed.Shelf,
		RAIDGrp: failed.RAIDGrp,
		Slot:    failed.Slot,
	})
	return id
}

// Exposure is a group's share of a fleet's disks: how many it holds
// and their summed residency in years, the AFR denominator.
type Exposure struct {
	Disks int
	Years float64
}

// AddExposure adds every disk to the exposure of its system's group:
// group maps a system ID to an index of exp, or to -1 to leave the
// system's disks out. It walks the disks in ID order — each shelf's
// as-built span with the removals merged in, then the replacements —
// and adds each disk's ResidencyYears to its group's float sum one disk
// at a time, so every sum is the one a pass over a disk slab in ID
// order makes.
//
//detlint:hotpath
func (f *Fleet) AddExposure(group []int, exp []Exposure) {
	end := int32(simtime.StudyDuration)
	rm := f.removed
	for i := range f.Shelves {
		sh := &f.Shelves[i]
		g := group[sh.System]
		if g < 0 {
			for len(rm) > 0 && rm[0].id < sh.Disks.Hi {
				rm = rm[1:]
			}
			continue
		}
		d := Disk{Install: int32(f.Systems[sh.System].Install), Remove: end}
		full := d.ResidencyYears()
		e := &exp[g]
		e.Disks += sh.Disks.Len()
		sum := e.Years
		lo := sh.Disks.Lo
		for ; len(rm) > 0 && rm[0].id < sh.Disks.Hi; rm = rm[1:] {
			for range rm[0].id - lo {
				sum += full
			}
			d.Remove = rm[0].at
			sum += d.ResidencyYears()
			lo = rm[0].id + 1
		}
		for range sh.Disks.Hi - lo {
			sum += full
		}
		e.Years = sum
	}
	for i := range f.repl {
		d := &f.repl[i]
		if g := group[f.Shelves[d.Shelf].System]; g >= 0 {
			exp[g].Disks++
			exp[g].Years += d.ResidencyYears()
		}
	}
}

// Checkpoint records a fleet's population boundary so a simulated
// trial can be rolled back with Reset. Capture it right after Build or
// Clone, before any simulation has touched the fleet.
type Checkpoint struct {
	disks int
}

// Checkpoint captures the fleet's current population boundary.
func (f *Fleet) Checkpoint() Checkpoint { return Checkpoint{disks: f.NumDisks()} }

// Reset rolls the fleet back to a checkpoint taken before simulation:
// replacement disks installed since are dropped, and every surviving
// disk's residency is restored to the full study window. After Reset
// the fleet is indistinguishable from the freshly built one, so
// re-simulating with the same seed reproduces the identical event
// stream, and re-simulating with a new seed yields an independent
// Monte-Carlo trial over the same population without paying for a
// rebuild (the sweep engine's steady state; see internal/sweep). It
// truncates the delta, touching only the replacements the checkpoint
// kept (none, for one taken right after a build), and the delta keeps
// its capacity, so the next trial records its changes without
// reallocating.
func (f *Fleet) Reset(c Checkpoint) {
	f.removed = f.removed[:0]
	f.repl = f.repl[:c.disks-f.asBuilt()]
	for i := range f.repl {
		d := &f.repl[i]
		d.Remove = int32(simtime.StudyDuration)
		d.Replaced = false
	}
}
