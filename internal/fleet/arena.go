package fleet

import "storagesubsys/internal/stats"

// This file implements the parallel fleet construction substrate: each
// build worker owns a private buildArena of value slabs (systems,
// shelves, disks, groups plus flat ID slices) wired by local indices,
// so constructing a system performs no per-item pointer allocation and
// no synchronization. After every worker finishes, the arenas are
// renumbered with global base offsets and spliced into the Fleet in
// shard order — shards are contiguous in (class, system) job order, so
// the result is bit-identical to a serial build for any worker count
// (see TestBuildWorkerCountEquivalence and TestBuildGoldenDigest).

// span locates one component's sublist within a flat arena slab.
// Subslices are materialized only at splice time, after the slabs have
// stopped growing.
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

	shelfIDs  []int // backing for System.Shelves
	groupIDs  []int // backing for System.RAIDGroups
	diskIDs   []int // backing for Shelf.Disks
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

// splice renumbers the arena's components with the given global base
// offsets and installs them into the fleet's pre-sized component slices.
// Workers splice disjoint index ranges, so concurrent splices need no
// synchronization.
func (a *buildArena) splice(f *Fleet, sysBase, shelfBase, diskBase, groupBase int) {
	a.trim()
	for i := range a.shelfIDs {
		a.shelfIDs[i] += shelfBase
	}
	for i := range a.groupIDs {
		a.groupIDs[i] += groupBase
	}
	for i := range a.diskIDs {
		a.diskIDs[i] += diskBase
	}
	for i := range a.memberIDs {
		a.memberIDs[i] += diskBase
	}

	for i := range a.disks {
		d := &a.disks[i]
		d.ID += diskBase
		d.System += sysBase
		d.Shelf += shelfBase
		if d.RAIDGrp >= 0 {
			d.RAIDGrp += groupBase
		}
		f.Disks[d.ID] = d
	}
	for i := range a.systems {
		s := &a.systems[i]
		s.ID += sysBase
		s.Shelves = a.subslice(a.shelfIDs, a.sysShelf[i])
		s.RAIDGroups = a.subslice(a.groupIDs, a.sysGroup[i])
		f.Systems[s.ID] = s
	}
	for i := range a.shelves {
		sh := &a.shelves[i]
		sh.ID += shelfBase
		sh.System += sysBase
		sh.Disks = a.subslice(a.diskIDs, a.shelfDisk[i])
		f.Shelves[sh.ID] = sh
	}
	for i := range a.groups {
		g := &a.groups[i]
		g.ID += groupBase
		g.System += sysBase
		g.Disks = a.subslice(a.memberIDs, a.groupMem[i])
		f.Groups[g.ID] = g
	}
}

// trim moves every slab the fleet keeps into an allocation of exactly
// its length. reserve sizes slabs from profile means with headroom, and
// once the fleet points into a slab the whole allocation stays resident
// for the fleet's lifetime: untrimmed, a built fleet held about a
// quarter more memory than ApproxBytes charges for it. Copying the
// slabs of flat values is cheap next to building them.
func (a *buildArena) trim() {
	a.systems = exact(a.systems)
	a.shelves = exact(a.shelves)
	a.disks = exact(a.disks)
	a.groups = exact(a.groups)
	a.shelfIDs = exact(a.shelfIDs)
	a.groupIDs = exact(a.groupIDs)
	a.diskIDs = exact(a.diskIDs)
	a.memberIDs = exact(a.memberIDs)
}

// exact returns a copy of s whose capacity is its length.
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// subslice materializes a span as a capacity-capped view of its slab, so
// a later append (CommitReplacements growing Shelf.Disks) reallocates
// instead of clobbering the next component's IDs. Empty spans stay nil,
// matching what a serial append-driven build leaves behind.
func (a *buildArena) subslice(slab []int, sp span) []int {
	if sp.n == 0 {
		return nil
	}
	return slab[sp.off : sp.off+sp.n : sp.off+sp.n]
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
	sysBase, shelfBase, diskBase, groupBase int

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
			a.disks[id].RAIDGrp = groupLocal
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
