package fleet

import "storagesubsys/internal/stats"

// This file implements the parallel fleet construction substrate: each
// build worker owns a private buildArena of value slabs (systems,
// shelves, disks, groups plus flat ID slices) wired by local indices,
// so constructing a system performs no per-item pointer allocation and
// no synchronization. After every worker finishes, each arena is
// renumbered with global base offsets and copied into its window of the
// fleet's pre-sized slabs, in shard order — shards are contiguous in
// (class, system) job order, so the result is bit-identical to a serial
// build for any worker count (see TestBuildWorkerCountEquivalence and
// TestBuildGoldenDigest).

// span locates one component's sublist within a flat arena slab.
// Subslices are materialized only at splice time, in the fleet's slabs.
type span struct{ off, n int }

// buildArena holds everything one worker builds, with all cross
// references expressed as arena-local indices (a system's first shelf is
// shelf 0 of this arena, and so on). Component values live in slabs, and
// the []int topology lists (System.Shelves, Shelf.Disks, ...) live in
// four flat slabs carved into subslices at splice time.
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

// bases are a shard's global offsets: where its components and ID lists
// start in the fleet's slabs. The shelf, group and disk ID lists have
// one entry per component, so they share the component offsets; RAID
// membership leaves spares out and carries its own.
type bases struct{ sys, shelf, disk, group, member int }

// idSlabs are the fleet-wide flat backings of the four ID-list kinds,
// allocated at their exact final lengths: each component's list, plus
// mountRoom spare slots after every shelf mount list.
type idSlabs struct{ shelf, group, disk, member []int }

// mountRoom is the number of spare slots after each shelf's as-built
// mount list, so CommitReplacements appends a shelf's first
// replacements in place. The calibrated model replaces under one disk
// per shelf per simulated study window, so two slots carry nearly
// every shelf through a trial; without them, every shelf that received
// a replacement would regrow its list into a fresh allocation.
const mountRoom = 2

// splice renumbers the arena's components with the shard's global
// offsets while copying them into the fleet's pre-sized slabs, and
// carves every ID list out of its window of the flat backings. This one
// copy moves each build into allocations of exactly the fleet's size,
// so the arena's over-reserved slabs become garbage rather than staying
// resident for the fleet's lifetime. Workers splice disjoint windows, so
// concurrent splices need no synchronization.
func (a *buildArena) splice(f *Fleet, ids idSlabs, b bases) {
	shiftInto(ids.shelf[b.shelf:], a.shelfIDs, b.shelf)
	shiftInto(ids.group[b.group:], a.groupIDs, b.group)
	shiftInto(ids.member[b.member:], a.memberIDs, b.disk)

	disks := f.Disks[b.disk : b.disk+len(a.disks)]
	for i := range a.disks {
		d := a.disks[i]
		d.System += int32(b.sys)
		d.Shelf += int32(b.shelf)
		if d.RAIDGrp >= 0 {
			d.RAIDGrp += int32(b.group)
		}
		disks[i] = d
	}
	systems := f.Systems[b.sys : b.sys+len(a.systems)]
	for i := range a.systems {
		s := a.systems[i]
		s.ID += b.sys
		s.Shelves = carve(ids.shelf, b.shelf+a.sysShelf[i].off, a.sysShelf[i].n, 0)
		s.RAIDGroups = carve(ids.group, b.group+a.sysGroup[i].off, a.sysGroup[i].n, 0)
		systems[i] = s
	}
	// Mount lists are laid out with mountRoom spare slots each, so the
	// shard's window of the disk-ID backing starts after every earlier
	// shard's disks and spare slots, and the arena's i-th shelf sits i
	// spare runs past its arena offset.
	mounts := ids.disk[b.disk+b.shelf*mountRoom:]
	shelves := f.Shelves[b.shelf : b.shelf+len(a.shelves)]
	for i := range a.shelves {
		sh := a.shelves[i]
		sh.ID += b.shelf
		sh.System += b.sys
		sp := a.shelfDisk[i]
		lo := sp.off + i*mountRoom
		shiftInto(mounts[lo:], a.diskIDs[sp.off:sp.off+sp.n], b.disk)
		sh.Disks = carve(mounts, lo, sp.n, mountRoom)
		shelves[i] = sh
	}
	groups := f.Groups[b.group : b.group+len(a.groups)]
	for i := range a.groups {
		g := a.groups[i]
		g.ID += b.group
		g.System += b.sys
		g.Disks = carve(ids.member, b.member+a.groupMem[i].off, a.groupMem[i].n, 0)
		groups[i] = g
	}
}

// shiftInto writes src[i]+shift to dst[i] for every element of src.
func shiftInto(dst, src []int, shift int) {
	for i, v := range src {
		dst[i] = v + shift
	}
}

// carve materializes the n-element list at slab[lo:] as a view capped
// at its room spare slots, so a later append (CommitReplacements
// growing Shelf.Disks) past the room reallocates instead of clobbering
// the next component's IDs. Empty lists stay nil, matching what a
// serial append-driven build leaves behind.
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

// buildWorker builds a contiguous shard of the fleet's (class, system)
// jobs into a private arena. The scratch fields are recycled across
// systems, so the steady-state per-system loop allocates nothing.
type buildWorker struct {
	arena buildArena

	// Global base offsets assigned after all workers finish phase A.
	base bases

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
// the bookkeeping moved into recycled worker scratch.
//
//detlint:hotpath
func (w *buildWorker) layoutRAIDGroups(sysLocal, sysDiskOff int, p *ClassProfile, r *stats.RNG) {
	a := &w.arena
	nShelves := a.sysShelf[sysLocal].n
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
	w.queueBuf = growInts(w.queueBuf, nDisks)
	w.diskShelf = growInts(w.diskShelf, nDisks)
	if cap(w.queues) < nShelves {
		w.queues = make([]diskQueue, nShelves)
	}
	w.queues = w.queues[:nShelves]
	if cap(w.shelfMark) < nShelves {
		// Fresh zeros are fine: stamps only ever equal past epochs, and
		// the epoch counter is bumped before each use.
		w.shelfMark = make([]uint64, nShelves)
	}
	w.shelfMark = w.shelfMark[:nShelves]

	shelfBase := a.sysShelf[sysLocal].off
	pos := 0
	for i := 0; i < nShelves; i++ {
		sd := a.shelfDisk[a.shelfIDs[shelfBase+i]]
		w.queues[i] = diskQueue{start: pos, size: sd.n, count: sd.n}
		for j := 0; j < sd.n; j++ {
			id := a.diskIDs[sd.off+j]
			w.queueBuf[pos] = id
			pos++
			w.diskShelf[id-sysDiskOff] = i
		}
	}

	window := 0
	failedWindows := 0
	for failedWindows < nShelves {
		// Draw members round-robin from the window's shelves only.
		members := w.members[:0]
		for len(members) < p.RAIDGroupSize {
			progress := false
			for j := 0; j < spanWidth && len(members) < p.RAIDGroupSize; j++ {
				si := (window + j) % nShelves
				if w.queues[si].count > 0 {
					members = append(members, w.queues[si].popFront(w.queueBuf))
					progress = true
				}
			}
			if !progress {
				break
			}
		}
		w.members = members
		if len(members) < p.RAIDGroupSize {
			// Window exhausted: return the drawn disks and slide by one.
			for _, id := range members {
				w.queues[w.diskShelf[id-sysDiskOff]].pushBack(w.queueBuf, id)
			}
			failedWindows++
			window = (window + 1) % nShelves
			continue
		}
		failedWindows = 0

		groupLocal := len(a.groups)
		rt := RAID4
		if r.Bernoulli(p.RAID6Fraction) {
			rt = RAID6
		}
		// Count distinct shelves with epoch stamps: the mark array is
		// never cleared, a fresh epoch invalidates all stale stamps.
		w.epoch++
		spanned := 0
		for _, id := range members {
			si := w.diskShelf[id-sysDiskOff]
			if w.shelfMark[si] != w.epoch {
				w.shelfMark[si] = w.epoch
				spanned++
			}
			a.disks[id].RAIDGrp = int32(groupLocal)
		}
		memOff := len(a.memberIDs)
		a.memberIDs = append(a.memberIDs, members...)
		a.groups = append(a.groups, RAIDGroup{
			ID: groupLocal, System: sysLocal, Type: rt, ShelvesSpanned: spanned,
		})
		a.groupMem = append(a.groupMem, span{off: memOff, n: len(members)})
		a.groupIDs = append(a.groupIDs, groupLocal)
		window = (window + spanWidth) % nShelves
	}
}
