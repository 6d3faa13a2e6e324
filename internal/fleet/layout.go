package fleet

import "storagesubsys/internal/stats"

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
func (b *builder) layoutRAIDGroups(sysID int, shelves Span, sysDiskOff int, p *ClassProfile, r *stats.RNG) {
	f := b.f
	nShelves := shelves.Len()
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
	for i, sh := range f.Shelves[shelves.Lo:shelves.Hi] {
		n := sh.Disks.Len()
		b.queues[i] = diskQueue{start: pos, size: n, count: n}
		for id := int(sh.Disks.Lo); id < int(sh.Disks.Hi); id++ {
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
			f.Members = append(f.Members, int32(id))
		}
		f.Groups = append(f.Groups, RAIDGroup{
			ID: int32(groupID), System: int32(sysID), Type: rt, ShelvesSpanned: spanned,
			Members: Span{int32(len(f.Members) - len(members)), int32(len(f.Members))},
		})
		window = (window + spanWidth) % nShelves
	}
}
