package fleet

import (
	"runtime"
	"slices"
	"testing"

	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// allDisks returns every disk's record in ID order, through Disk.
func allDisks(f *Fleet) []Disk {
	disks := make([]Disk, f.NumDisks())
	for id := range disks {
		disks[id] = f.Disk(id)
	}
	return disks
}

// oracle is the dense disk slab fleets stored before they held only a
// delta: one record per disk, written in place. The delta is held to
// it.
type oracle []Disk

// newOracle derives the as-built slab from the topology as fleets once
// did: each disk's shelf and slot from the shelf spans, its install
// time from its system, its RAID group from the member windows, and
// its removal at the study's end.
func newOracle(f *Fleet) oracle {
	o := make(oracle, f.asBuilt())
	for _, sys := range f.Systems {
		for si := sys.Shelves.Lo; si < sys.Shelves.Hi; si++ {
			sh := f.Shelves[si]
			for slot := range sh.Disks.Len() {
				o[int(sh.Disks.Lo)+slot] = Disk{
					Install: int32(sys.Install),
					Remove:  int32(simtime.StudyDuration),
					Shelf:   si,
					RAIDGrp: -1,
					Slot:    uint8(slot),
				}
			}
		}
		for gi := sys.RAIDGroups.Lo; gi < sys.RAIDGroups.Hi; gi++ {
			g := f.Groups[gi]
			for _, id := range f.Members[g.Members.Lo:g.Members.Hi] {
				o[id].RAIDGrp = gi
			}
		}
	}
	return o
}

// shelfDisks lists every shelf's disk IDs, ascending, from one scan of
// the records.
func (o oracle) shelfDisks(shelves int) [][]int {
	ids := make([][]int, shelves)
	for id, d := range o {
		ids[d.Shelf] = append(ids[d.Shelf], id)
	}
	return ids
}

// applyTrial drives f and the oracle through the same trial, shaped by
// ops, in the simulator's order: as-built slots in ID order (shelf by
// shelf), each slot's occupants in time order. Per slot, one byte
// either skips ahead or gives how many times the slot's occupant
// leaves service; each departure reads whether it was a failure
// (Replaced), whether a replacement follows, and the gaps. Exhausted
// ops read as zero, which leaves the remaining slots untouched.
func applyTrial(t testing.TB, f *Fleet, o *oracle, ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	end := simtime.StudyDuration
	for id := 0; id < f.asBuilt(); id++ {
		b := next()
		if b%4 == 0 {
			id += b / 4
			continue
		}
		cur := id
		at := simtime.Seconds((*o)[cur].Install)
		for range b % 4 {
			at += simtime.Seconds(1+next()) * 7 * simtime.SecondsPerDay
			if at >= end {
				break
			}
			replaced := next()%2 == 0
			f.Remove(cur, at, replaced)
			(*o)[cur].Remove, (*o)[cur].Replaced = int32(at), replaced
			if next()%5 == 0 {
				break // the slot stays empty
			}
			at += simtime.Seconds(next()) * simtime.SecondsPerDay
			if at >= end {
				break
			}
			failed := (*o)[cur]
			cur = f.Replace(f.Disk(cur), at)
			if cur != len(*o) {
				t.Fatalf("replacement got ID %d, want %d", cur, len(*o))
			}
			*o = append(*o, Disk{Install: int32(at), Remove: int32(end), Shelf: failed.Shelf, RAIDGrp: failed.RAIDGrp, Slot: failed.Slot})
		}
	}
}

// checkOracle requires every reader of f's disks to agree with the
// dense oracle: NumDisks, Disk for every ID, every shelf's ShelfDisks,
// and AddExposure, whose sums must be the oracle's, disk by disk in ID
// order.
func checkOracle(t testing.TB, f *Fleet, o oracle) {
	t.Helper()
	if f.NumDisks() != len(o) {
		t.Fatalf("NumDisks %d, oracle %d", f.NumDisks(), len(o))
	}
	for id, want := range o {
		if got := f.Disk(id); got != want {
			t.Fatalf("Disk(%d) = %+v, oracle %+v", id, got, want)
		}
	}
	for shelf, want := range o.shelfDisks(len(f.Shelves)) {
		if got := f.ShelfDisks(nil, shelf); !slices.Equal(got, want) {
			t.Fatalf("shelf %d disks %v, oracle %v", shelf, got, want)
		}
	}
	// AddExposure under two groupings: every system its own group, and
	// a third of the systems left out with the rest in two groups that
	// interleave. Exact float equality holds the per-disk ID order.
	for _, groupOf := range []func(sys int) int{
		func(sys int) int { return sys },
		func(sys int) int { return sys%3 - 1 },
	} {
		group := make([]int, len(f.Systems))
		for sys := range group {
			group[sys] = groupOf(sys)
		}
		got := make([]Exposure, len(f.Systems))
		want := make([]Exposure, len(f.Systems))
		f.AddExposure(group, got)
		for _, d := range o {
			if g := group[f.Shelves[d.Shelf].System]; g >= 0 {
				want[g].Disks++
				want[g].Years += d.ResidencyYears()
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("exposure %v, oracle %v", got, want)
		}
	}
}

// checkTrialDelta applies one trial to a clone of f, holds it to the
// oracle, then requires Reset to return the clone to the as-built
// population.
func checkTrialDelta(t testing.TB, f *Fleet, ops []byte) {
	t.Helper()
	c := f.Clone()
	cp := c.Checkpoint()
	built := newOracle(f)
	checkOracle(t, c, built)
	o := slices.Clone(built)
	applyTrial(t, c, &o, ops)
	checkOracle(t, c, o)
	c.Reset(cp)
	checkOracle(t, c, built)
	// A second trial on the Reset fleet reuses the delta's storage.
	o = slices.Clone(built)
	applyTrial(t, c, &o, ops)
	checkOracle(t, c, o)
}

// TestTrialDeltaMatchesOracle applies seeded random trials, from none to
// dense churn, to fleets built under the default and operational
// profiles, and holds each to the dense-slab oracle.
func TestTrialDeltaMatchesOracle(t *testing.T) {
	ops := opsProfilesInternal()
	for _, tc := range []struct {
		name     string
		profiles []ClassProfile
		seed     int64
		density  int // one byte in density starts a slot's departures
	}{
		{"default-none", DefaultProfiles(), 11, 0},
		{"default-sparse", DefaultProfiles(), 11, 16},
		{"default-dense", DefaultProfiles(), 12, 1},
		{"ops-sparse", ops, 13, 8},
		{"ops-dense", ops, 14, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := Build(tc.profiles, 0.002, tc.seed)
			r := stats.NewRNG(tc.seed)
			var trial []byte
			if tc.density > 0 {
				trial = make([]byte, 8*f.NumDisks())
				for i := range trial {
					trial[i] = byte(r.Intn(256))
					if i%8 == 0 && r.Intn(tc.density) != 0 {
						trial[i] = 0 // skip to the next slot
					}
				}
			}
			checkTrialDelta(t, f, trial)
		})
	}
}

// opsProfilesInternal stresses the fleet-side operational dimensions:
// sparse shelves and single-shelf groups.
func opsProfilesInternal() []ClassProfile {
	profiles := DefaultProfiles()
	for i := range profiles {
		profiles[i].SparseShelfFraction = 0.5
		profiles[i].SpanShelves = 1
	}
	return profiles
}

// FuzzTrialDelta holds the delta to the dense-slab oracle over
// arbitrary trials: the input shapes every slot's departures and
// replacements (see applyTrial).
func FuzzTrialDelta(f *testing.F) {
	fl := BuildDefault(0.002, 11)
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 1, 2, 7, 5, 9})
	f.Add([]byte{3, 0, 0, 1, 0, 0, 1, 0, 0, 1, 8, 2, 1, 2, 255, 3, 4, 5, 6})
	f.Add(slices.Repeat([]byte{3, 1, 1, 1}, 200))
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkTrialDelta(t, fl, ops)
	})
}

// TestCloneResetAllocateNoSlab holds Clone and Reset to costs that do
// not grow with the population: a clone is one small allocation of
// slice headers, and a Reset allocates nothing.
func TestCloneResetAllocateNoSlab(t *testing.T) {
	f := BuildDefault(0.05, 53)
	var c *Fleet
	if allocs := testing.AllocsPerRun(10, func() { c = f.Clone() }); allocs > 1 {
		t.Errorf("Clone allocated %.0f times, want 1", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const clones = 100
	for range clones {
		c = f.Clone()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / clones; per > 256 {
		t.Errorf("Clone of a %d-disk fleet allocated %d bytes", f.NumDisks(), per)
	}

	cp := c.Checkpoint()
	o := newOracle(c)
	trial := slices.Repeat([]byte{1, 3, 1, 1, 0, 0, 0, 0}, f.NumDisks()/8)
	applyTrial(t, c, &o, trial)
	if c.NumDisks() == f.NumDisks() {
		t.Fatal("setup: the trial installed no replacement")
	}
	if allocs := testing.AllocsPerRun(10, func() { c.Reset(cp) }); allocs != 0 {
		t.Errorf("Reset allocated %.0f times, want 0", allocs)
	}
}
