package fleet

import "storagesubsys/internal/stats"

// mountRoom is the number of spare slots after each shelf's as-built
// mount list, so Replace appends a shelf's first replacements in
// place. The calibrated model replaces under one disk per shelf per
// simulated study window, so two slots carry nearly every shelf
// through a trial; without them, every shelf that received a
// replacement would regrow its list into a fresh allocation.
const mountRoom = 2

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

// idRange returns the IDs 0..n-1. Components of one kind are numbered
// in system order, so every system's list of them is a window of this
// backing.
func idRange(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
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

// builder writes a fleet's systems straight into its final slabs,
// which Build sized exactly (or, for RAID groups, by an upper bound)
// beforehand. The scratch fields are recycled across systems, so the
// steady-state per-system loop allocates nothing.
type builder struct {
	f                       *Fleet
	systems, shelves, disks int // components written so far: the next IDs

	shelfIDs  []int // backing for System.Shelves: idRange over the shelves
	groupIDs  []int // backing for System.RAIDGroups: idRange over the group bound
	mounts    []int // backing for Shelf.Disks: each list then mountRoom spare slots
	memberIDs []int // backing for RAIDGroup.Disks, appended up to its bound

	shelfDisks []int // drawShape's per-shelf disk counts

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
// the bookkeeping moved into recycled builder scratch. The system's
// disks are the last ones written, from sysDiskOff on, and its groups
// are appended to the fleet's group slab.
//
//detlint:hotpath
func (b *builder) layoutRAIDGroups(sysID int, shelves []int, sysDiskOff int, p *ClassProfile, r *stats.RNG) {
	f := b.f
	nShelves := len(shelves)
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
	nDisks := b.disks - sysDiskOff
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

	pos := 0
	for i, shelfID := range shelves {
		ids := f.Shelves[shelfID].Disks
		b.queues[i] = diskQueue{start: pos, size: len(ids), count: len(ids)}
		for _, id := range ids {
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

		groupID := len(f.Groups)
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
			f.Disks[id].RAIDGrp = int32(groupID)
		}
		off := len(b.memberIDs)
		b.memberIDs = append(b.memberIDs, members...)
		f.Groups = append(f.Groups, RAIDGroup{
			ID: groupID, System: sysID, Type: rt, ShelvesSpanned: spanned,
			Disks: carve(b.memberIDs, off, len(members), 0),
		})
		window = (window + spanWidth) % nShelves
	}
}
