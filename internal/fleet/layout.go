package fleet

import "storagesubsys/internal/stats"

// builder writes a fleet's systems straight into its final slabs,
// which Build sized exactly (or, for RAID groups, by an upper bound)
// beforehand. The scratch fields are recycled across systems, so the
// steady-state per-system loop allocates nothing.
type builder struct {
	f                       *Fleet
	systems, shelves, disks int // components written so far: the next IDs

	shelfDisks []int  // drawShape's per-shelf disk counts
	free       []Span // layoutRAIDGroups' unassigned disks, per shelf
}

// layoutRAIDGroups stripes RAID groups across the system's shelves
// following the paper's Figure 8: each group draws its members
// round-robin from a window of SpanShelves consecutive shelves, so a
// group spans up to SpanShelves enclosures and no enclosure is a single
// point of failure for the whole group (unless SpanShelves == 1, the
// ablation case). Its groups are appended to the fleet's group slab.
//
// A shelf's unassigned disks are always a suffix of its as-built span,
// taken in ID order, so that suffix (b.free) is the whole layout state.
// A window whose shelves hold fewer than RAIDGroupSize disks in all
// takes none and slides by one shelf; any other window fills a group
// and slides past itself. TestLayoutMatchesQueueOracle holds this to
// the per-shelf FIFO-queue layout the build goldens were recorded with.
//
//detlint:hotpath
func (b *builder) layoutRAIDGroups(sysID int, shelves Span, p *ClassProfile, r *stats.RNG) {
	f := b.f
	nShelves := shelves.Len()
	size := p.RAIDGroupSize
	if nShelves == 0 || size <= 0 {
		return
	}
	// A group only ever draws from the spanWidth consecutive shelves of
	// its window, so ShelvesSpanned <= spanWidth is a hard invariant
	// (the span=1 ablation relies on it).
	spanWidth := min(max(p.SpanShelves, 1), nShelves)

	b.free = b.free[:0]
	for _, sh := range f.Shelves[shelves.Lo:shelves.Hi] {
		b.free = append(b.free, sh.Disks)
	}

	window := 0
	for failedWindows := 0; failedWindows < nShelves; {
		held := 0
		for j := 0; j < spanWidth; j++ {
			held += b.free[(window+j)%nShelves].Len()
		}
		if held < size {
			failedWindows++
			window = (window + 1) % nShelves
			continue
		}
		failedWindows = 0

		groupID := int32(len(f.Groups))
		rt := RAID4
		if r.Bernoulli(p.RAID6Fraction) {
			rt = RAID6
		}
		// Take members round-robin. A shelf that gives any member gives
		// one in the first round, so the first round counts the shelves
		// spanned; with size < spanWidth the group may fill before the
		// round reaches every shelf that holds disks.
		lo := len(f.Members)
		spanned := 0
		for round := 0; len(f.Members)-lo < size; round++ {
			for j := 0; j < spanWidth && len(f.Members)-lo < size; j++ {
				s := &b.free[(window+j)%nShelves]
				if s.Lo == s.Hi {
					continue
				}
				f.Members = append(f.Members, s.Lo)
				s.Lo++
				if round == 0 {
					spanned++
				}
			}
		}
		f.Groups = append(f.Groups, RAIDGroup{
			ID: groupID, System: int32(sysID), Type: rt, ShelvesSpanned: spanned,
			Members: Span{int32(lo), int32(len(f.Members))},
		})
		window = (window + spanWidth) % nShelves
	}
}
