package fleet

import (
	"slices"

	"storagesubsys/internal/stats"
)

// This file implements the fleet construction substrate: Build fills a
// buildArena of value slabs (systems, shelves, disks, groups plus flat
// ID slices) wired by index, so constructing a system performs no
// per-item pointer allocation, then copies the arena once into the
// fleet's exact-length slabs (see TestBuildGoldenDigest).

// span locates one component's sublist within a flat arena slab.
// Subslices are materialized only by finish, in the fleet's slabs.
type span struct{ off, n int }

// buildArena holds everything a build constructs, with every cross
// reference expressed as an index (a system's first shelf is the
// shelf at that index of the shelf slab, and so on). Component values
// live in slabs, and the []int topology lists (System.Shelves,
// Shelf.Disks, ...) live in four flat slabs carved into subslices by
// finish.
type buildArena struct {
	systems []System
	shelves []Shelf
	disks   []Disk
	groups  []RAIDGroup

	shelfIDs  []int // backing for System.Shelves: one entry per shelf
	groupIDs  []int // backing for System.RAIDGroups: one entry per group
	diskIDs   []int // backing for Shelf.Disks: one entry per disk
	memberIDs []int // backing for RAIDGroup.Disks

	sysShelf  []span // per system: its window of shelfIDs
	sysGroup  []span // per system: its window of groupIDs
	shelfDisk []span // per shelf: its window of diskIDs
	groupMem  []span // per group: its window of memberIDs
}

// reserve pre-sizes the slabs for the expected component counts so the
// steady-state build loop almost never regrows them.
func (a *buildArena) reserve(systems, shelves, disks, groups int) {
	a.systems = make([]System, 0, systems)
	a.shelves = make([]Shelf, 0, shelves)
	a.disks = make([]Disk, 0, disks)
	a.groups = make([]RAIDGroup, 0, groups)
	a.shelfIDs = make([]int, 0, shelves)
	a.groupIDs = make([]int, 0, groups)
	a.diskIDs = make([]int, 0, disks)
	a.memberIDs = make([]int, 0, disks)
	a.sysShelf = make([]span, 0, systems)
	a.sysGroup = make([]span, 0, systems)
	a.shelfDisk = make([]span, 0, shelves)
	a.groupMem = make([]span, 0, groups)
}

// mountRoom is the number of spare slots after each shelf's as-built
// mount list, so Replace appends a shelf's first replacements in
// place. The calibrated model replaces under one disk per shelf per
// simulated study window, so two slots carry nearly every shelf
// through a trial; without them, every shelf that received a
// replacement would regrow its list into a fresh allocation.
const mountRoom = 2

// finish copies the arena into a fleet of exactly its size and carves
// every ID list out of its window of one flat backing per list kind,
// shelf mount lists each followed by mountRoom spare slots. This one
// copy moves the build into allocations of exactly the fleet's size,
// so the arena's over-reserved slabs become garbage rather than
// staying resident for the fleet's lifetime.
func (a *buildArena) finish(seed int64) *Fleet {
	f := &Fleet{
		Systems: make([]System, len(a.systems)),
		Shelves: make([]Shelf, len(a.shelves)),
		Disks:   diskSlab(len(a.disks)),
		Groups:  make([]RAIDGroup, len(a.groups)),
		Seed:    seed,
	}
	copy(f.Disks, a.disks)
	shelfIDs := slices.Clone(a.shelfIDs)
	groupIDs := slices.Clone(a.groupIDs)
	memberIDs := slices.Clone(a.memberIDs)
	for i, s := range a.systems {
		s.Shelves = carve(shelfIDs, a.sysShelf[i].off, a.sysShelf[i].n, 0)
		s.RAIDGroups = carve(groupIDs, a.sysGroup[i].off, a.sysGroup[i].n, 0)
		f.Systems[i] = s
	}
	// The i-th shelf's mount list sits i spare runs past its arena offset.
	mounts := make([]int, len(a.diskIDs)+len(a.shelves)*mountRoom)
	for i, sh := range a.shelves {
		sp := a.shelfDisk[i]
		lo := sp.off + i*mountRoom
		copy(mounts[lo:], a.diskIDs[sp.off:sp.off+sp.n])
		sh.Disks = carve(mounts, lo, sp.n, mountRoom)
		f.Shelves[i] = sh
	}
	for i, g := range a.groups {
		g.Disks = carve(memberIDs, a.groupMem[i].off, a.groupMem[i].n, 0)
		f.Groups[i] = g
	}
	return f
}

// carve materializes the n-element list at slab[lo:] as a view capped
// at its room spare slots, so a later append (Replace growing
// Shelf.Disks) past the room reallocates instead of clobbering the
// next component's IDs. Empty lists stay nil, matching what an
// append-driven build leaves behind.
func carve(slab []int, lo, n, room int) []int {
	if n == 0 {
		return nil
	}
	return slab[lo : lo+n : lo+n+room]
}

// diskQueue is a FIFO ring over one shelf's segment of the layout
// scratch buffer. A RAID-group window draw pops unassigned disks from
// the front; a failed window returns its draws to the back. Returned
// disks were just popped, so the live count never exceeds the segment
// capacity.
type diskQueue struct {
	start, size int // segment [start, start+size) of the scratch buffer
	head, count int
}

//detlint:hotpath
func (q *diskQueue) popFront(buf []int) int {
	v := buf[q.start+q.head]
	q.head++
	if q.head == q.size {
		q.head = 0
	}
	q.count--
	return v
}

//detlint:hotpath
func (q *diskQueue) pushBack(buf []int, v int) {
	t := q.head + q.count
	if t >= q.size {
		t -= q.size
	}
	buf[q.start+t] = v
	q.count++
}

// builder builds the fleet's systems into its arena. The scratch
// fields are recycled across systems, so the steady-state per-system
// loop allocates nothing.
type builder struct {
	arena buildArena

	// RAID layout scratch (see layoutRAIDGroups).
	queueBuf  []int       // flat per-shelf ring segments of unassigned disks
	queues    []diskQueue // per-shelf ring state
	diskShelf []int       // system-local disk index -> shelf position
	members   []int       // current group's draw
	shelfMark []uint64    // epoch stamps for distinct-shelf counting
	epoch     uint64
}

// growInts returns s resized to n, reallocating only when capacity is
// exceeded. Contents are unspecified.
//
//detlint:hotpath
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// layoutRAIDGroups stripes RAID groups across the system's shelves
// following the paper's Figure 8: each group draws its members
// round-robin from a window of SpanShelves consecutive shelves, so a
// group spans up to SpanShelves enclosures and no enclosure is a single
// point of failure for the whole group (unless SpanShelves == 1, the
// ablation case). The draw order — and therefore the layout — is
// identical to the historical per-system map/queue implementation; only
// the bookkeeping moved into recycled builder scratch.
//
//detlint:hotpath
func (b *builder) layoutRAIDGroups(sysID, sysDiskOff int, p *ClassProfile, r *stats.RNG) {
	a := &b.arena
	nShelves := a.sysShelf[sysID].n
	if nShelves == 0 || p.RAIDGroupSize <= 0 {
		return
	}
	spanWidth := p.SpanShelves
	if spanWidth < 1 {
		spanWidth = 1
	}
	if spanWidth > nShelves {
		spanWidth = nShelves
	}

	// Per-shelf FIFO queues of unassigned disks, as rings over one flat
	// scratch buffer. A group only ever draws from the spanWidth
	// consecutive shelves of its window, so ShelvesSpanned <= spanWidth
	// is a hard invariant (the span=1 ablation relies on it).
	nDisks := len(a.disks) - sysDiskOff
	b.queueBuf = growInts(b.queueBuf, nDisks)
	b.diskShelf = growInts(b.diskShelf, nDisks)
	if cap(b.queues) < nShelves {
		b.queues = make([]diskQueue, nShelves)
	}
	b.queues = b.queues[:nShelves]
	if cap(b.shelfMark) < nShelves {
		// Fresh zeros are fine: stamps only ever equal past epochs, and
		// the epoch counter is bumped before each use.
		b.shelfMark = make([]uint64, nShelves)
	}
	b.shelfMark = b.shelfMark[:nShelves]

	shelfBase := a.sysShelf[sysID].off
	pos := 0
	for i := 0; i < nShelves; i++ {
		sd := a.shelfDisk[a.shelfIDs[shelfBase+i]]
		b.queues[i] = diskQueue{start: pos, size: sd.n, count: sd.n}
		for j := 0; j < sd.n; j++ {
			id := a.diskIDs[sd.off+j]
			b.queueBuf[pos] = id
			pos++
			b.diskShelf[id-sysDiskOff] = i
		}
	}

	window := 0
	failedWindows := 0
	for failedWindows < nShelves {
		// Draw members round-robin from the window's shelves only.
		members := b.members[:0]
		for len(members) < p.RAIDGroupSize {
			progress := false
			for j := 0; j < spanWidth && len(members) < p.RAIDGroupSize; j++ {
				si := (window + j) % nShelves
				if b.queues[si].count > 0 {
					members = append(members, b.queues[si].popFront(b.queueBuf))
					progress = true
				}
			}
			if !progress {
				break
			}
		}
		b.members = members
		if len(members) < p.RAIDGroupSize {
			// Window exhausted: return the drawn disks and slide by one.
			for _, id := range members {
				b.queues[b.diskShelf[id-sysDiskOff]].pushBack(b.queueBuf, id)
			}
			failedWindows++
			window = (window + 1) % nShelves
			continue
		}
		failedWindows = 0

		groupID := len(a.groups)
		rt := RAID4
		if r.Bernoulli(p.RAID6Fraction) {
			rt = RAID6
		}
		// Count distinct shelves with epoch stamps: the mark array is
		// never cleared, a fresh epoch invalidates all stale stamps.
		b.epoch++
		spanned := 0
		for _, id := range members {
			si := b.diskShelf[id-sysDiskOff]
			if b.shelfMark[si] != b.epoch {
				b.shelfMark[si] = b.epoch
				spanned++
			}
			a.disks[id].RAIDGrp = int32(groupID)
		}
		memOff := len(a.memberIDs)
		a.memberIDs = append(a.memberIDs, members...)
		a.groups = append(a.groups, RAIDGroup{
			ID: groupID, System: sysID, Type: rt, ShelvesSpanned: spanned,
		})
		a.groupMem = append(a.groupMem, span{off: memOff, n: len(members)})
		a.groupIDs = append(a.groupIDs, groupID)
		window = (window + spanWidth) % nShelves
	}
}
