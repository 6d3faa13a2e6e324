package fleet

import (
	"slices"
	"testing"

	"storagesubsys/internal/stats"
)

// queueLayout is the RAID layout as it stood before the per-shelf
// counters, kept as the test oracle: every shelf's unassigned disks sit
// in a FIFO queue, a window pops members round-robin from its shelves'
// queues, and a window that cannot fill a group pushes the popped disks
// back and slides by one shelf. It lays out one system of f, whose
// shelves are already written, appending to f.Groups and f.Members and
// setting each member's entry of grp, the disks' RAID groups.
func queueLayout(f *Fleet, grp []int32, sysID int, shelves Span, p *ClassProfile, r *stats.RNG) {
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
	queues := make([][]int32, nShelves)
	diskShelf := map[int32]int{}
	for i, sh := range f.Shelves[shelves.Lo:shelves.Hi] {
		for id := sh.Disks.Lo; id < sh.Disks.Hi; id++ {
			queues[i] = append(queues[i], id)
			diskShelf[id] = i
		}
	}

	window := 0
	failedWindows := 0
	for failedWindows < nShelves {
		var members []int32
		for len(members) < p.RAIDGroupSize {
			progress := false
			for j := 0; j < spanWidth && len(members) < p.RAIDGroupSize; j++ {
				si := (window + j) % nShelves
				if len(queues[si]) > 0 {
					members = append(members, queues[si][0])
					queues[si] = queues[si][1:]
					progress = true
				}
			}
			if !progress {
				break
			}
		}
		if len(members) < p.RAIDGroupSize {
			for _, id := range members {
				si := diskShelf[id]
				queues[si] = append(queues[si], id)
			}
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
		spanned := map[int]bool{}
		for _, id := range members {
			spanned[diskShelf[id]] = true
			grp[id] = groupID
			f.Members = append(f.Members, id)
		}
		f.Groups = append(f.Groups, RAIDGroup{
			ID: groupID, System: int32(sysID), Type: rt, ShelvesSpanned: len(spanned),
			Members: Span{int32(len(f.Members) - len(members)), int32(len(f.Members))},
		})
		window = (window + spanWidth) % nShelves
	}
}

// randomProfiles returns the default classes with eight systems each
// and random shapes: groups smaller than their span, windows wider than
// the system, one-disk shelves and sparse shelves.
func randomProfiles(rng *stats.RNG) []ClassProfile {
	profiles := DefaultProfiles()
	for i := range profiles {
		p := &profiles[i]
		p.NumSystems = 8
		p.ShelvesPerSystem = float64(1 + rng.Intn(12))
		p.DisksPerShelf = float64(1 + rng.Intn(14))
		p.RAIDGroupSize = 1 + rng.Intn(16)
		p.SpanShelves = rng.Intn(11)
		p.SparseShelfFraction = 0
		if rng.Bernoulli(0.5) {
			p.SparseShelfFraction = 0.5
		}
	}
	return profiles
}

// TestLayoutMatchesQueueOracle builds fleets from seeded random
// profiles and lays every system out again with queueLayout, replaying
// each system's stream through drawShape as Build's fill does. Every
// group (members in order, ShelvesSpanned, Type) and every disk's
// RAIDGrp must match. The shape ranges (randomProfiles) reach the cases
// the default profiles never build.
func TestLayoutMatchesQueueOracle(t *testing.T) {
	rng := stats.NewRNG(2508)
	for trial := 0; trial < 300; trial++ {
		profiles := randomProfiles(rng)
		seed := int64(trial)
		f := Build(profiles, 1, seed)

		// The oracle lays out into its own group and member slabs (a
		// Clone would share f's) and its own RAID group per disk.
		want := &Fleet{Systems: f.Systems, Shelves: f.Shelves}
		wantGrp := make([]int32, f.NumDisks())
		for i := range wantGrp {
			wantGrp[i] = -1
		}
		var b builder
		chunks, _ := planChunks(profiles, 1, seed, chunkSystems)
		sysID := 0
		for _, c := range chunks {
			for i := c.lo; i < c.hi; i++ {
				r := c.stream(i)
				b.drawShape(c.p, c.weights, &r)
				lo := int32(len(want.Groups))
				queueLayout(want, wantGrp, sysID, f.Systems[sysID].Shelves, c.p, &r)
				if got, exp := f.Systems[sysID].RAIDGroups, (Span{lo, int32(len(want.Groups))}); got != exp {
					t.Fatalf("trial %d system %d: groups %v, oracle %v", trial, sysID, got, exp)
				}
				sysID++
			}
		}

		if !slices.Equal(f.Groups, want.Groups) {
			for i := range min(len(f.Groups), len(want.Groups)) {
				if f.Groups[i] != want.Groups[i] {
					sys := f.Systems[want.Groups[i].System]
					t.Fatalf("trial %d: %s system %d with %d shelves: group %d is %+v, oracle %+v",
						trial, sys.Class, sys.ID, sys.Shelves.Len(), i, f.Groups[i], want.Groups[i])
				}
			}
			t.Fatalf("trial %d: %d groups, oracle %d", trial, len(f.Groups), len(want.Groups))
		}
		if !slices.Equal(f.Members, want.Members) {
			t.Fatalf("trial %d: member lists differ from the oracle", trial)
		}
		for id, g := range wantGrp {
			if got := f.Disk(id).RAIDGrp; got != g {
				t.Fatalf("trial %d: disk %d in group %d, oracle %d", trial, id, got, g)
			}
		}
	}
}
