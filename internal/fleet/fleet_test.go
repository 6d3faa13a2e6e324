package fleet

import (
	"math"
	"slices"
	"testing"

	"storagesubsys/internal/simtime"
)

func buildSmall(t *testing.T) *Fleet {
	t.Helper()
	return BuildDefault(0.02, 42)
}

func TestBuildDeterministic(t *testing.T) {
	a := BuildDefault(0.01, 7)
	b := BuildDefault(0.01, 7)
	if len(a.Systems) != len(b.Systems) || len(a.Disks) != len(b.Disks) {
		t.Fatal("same seed must build the same fleet")
	}
	for i := range a.Disks {
		if a.Disks[i].System != b.Disks[i].System || a.Disks[i].Shelf != b.Disks[i].Shelf {
			t.Fatal("disk placement must be deterministic")
		}
	}
	c := BuildDefault(0.01, 8)
	if len(c.Disks) == len(a.Disks) {
		// Counts can collide, but placements should differ somewhere.
		same := true
		for i := range c.Disks {
			if c.Disks[i].Shelf != a.Disks[i].Shelf {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds built identical fleets")
		}
	}
}

func TestBuildPopulationShape(t *testing.T) {
	f := buildSmall(t)
	stats := f.PopulationStats()
	if len(stats) != 4 {
		t.Fatalf("want 4 classes, got %d", len(stats))
	}
	byClass := map[SystemClass]Stats{}
	for _, s := range stats {
		byClass[s.Class] = s
	}
	// Scaled Table 1 counts (2% of the paper's population, +-25%).
	expect := map[SystemClass]struct{ systems, shelves, disks int }{
		NearLine: {99, 674, 10416},
		LowEnd:   {441, 745, 5300},
		MidRange: {143, 1052, 11580},
		HighEnd:  {100, 669, 9094},
	}
	for class, want := range expect {
		got := byClass[class]
		if math.Abs(float64(got.Systems-want.systems))/float64(want.systems) > 0.25 {
			t.Errorf("%s: %d systems, want ~%d", class, got.Systems, want.systems)
		}
		if math.Abs(float64(got.Shelves-want.shelves))/float64(want.shelves) > 0.25 {
			t.Errorf("%s: %d shelves, want ~%d", class, got.Shelves, want.shelves)
		}
		if math.Abs(float64(got.Disks-want.disks))/float64(want.disks) > 0.25 {
			t.Errorf("%s: %d disks, want ~%d", class, got.Disks, want.disks)
		}
	}
	// Only mid-range and high-end deploy dual paths, roughly 1/3.
	if byClass[NearLine].DualPath != 0 || byClass[LowEnd].DualPath != 0 {
		t.Error("near-line/low-end must be single-path")
	}
	for _, class := range []SystemClass{MidRange, HighEnd} {
		frac := float64(byClass[class].DualPath) / float64(byClass[class].Systems)
		if frac < 0.2 || frac > 0.5 {
			t.Errorf("%s: dual-path fraction %g, want ~1/3", class, frac)
		}
	}
}

func TestTopologyInvariants(t *testing.T) {
	f := buildSmall(t)
	for id, d := range f.Disks {
		if d.Slot >= MaxDisksPerShelf {
			t.Fatalf("disk %d slot %d out of range", id, d.Slot)
		}
		sh := f.Shelves[d.Shelf]
		if sh.System != int(d.System) {
			t.Fatalf("disk %d shelf/system mismatch", id)
		}
		if d.Install < 0 || d.Remove > simtime.StudyDuration || d.Remove < d.Install {
			t.Fatalf("disk %d residency [%d, %d] invalid", id, d.Install, d.Remove)
		}
		if d.RAIDGrp >= 0 {
			g := f.Groups[d.RAIDGrp]
			found := false
			for _, member := range g.Disks {
				if member == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("disk %d claims group %d but is not a member", id, d.RAIDGrp)
			}
		}
	}
	for _, sh := range f.Shelves {
		if len(sh.Disks) > MaxDisksPerShelf {
			t.Fatalf("shelf %d has %d disks (max %d)", sh.ID, len(sh.Disks), MaxDisksPerShelf)
		}
		slots := map[uint8]bool{}
		for _, id := range sh.Disks {
			d := f.Disks[id]
			if slots[d.Slot] {
				t.Fatalf("shelf %d slot %d double-occupied at build time", sh.ID, d.Slot)
			}
			slots[d.Slot] = true
		}
	}
	for _, sys := range f.Systems {
		if len(sys.Shelves) == 0 {
			t.Fatalf("system %d has no shelves", sys.ID)
		}
		if sys.DiskModel == (DiskModel{}) {
			t.Fatalf("system %d has no disk model", sys.ID)
		}
	}
}

func TestRAIDGroupLayout(t *testing.T) {
	f := buildSmall(t)
	profileByClass := map[SystemClass]ClassProfile{}
	for _, p := range DefaultProfiles() {
		profileByClass[p.Class] = p
	}
	spanned := 0.0
	multi := 0
	for _, g := range f.Groups {
		sys := f.Systems[g.System]
		p := profileByClass[sys.Class]
		if len(g.Disks) != p.RAIDGroupSize {
			t.Fatalf("group %d (%s) has %d disks, want %d", g.ID, sys.Class, len(g.Disks), p.RAIDGroupSize)
		}
		// Members must belong to the owning system.
		shelves := map[int]bool{}
		for _, id := range g.Disks {
			if int(f.Disks[id].System) != g.System {
				t.Fatalf("group %d member from another system", g.ID)
			}
			shelves[int(f.Disks[id].Shelf)] = true
		}
		if g.ShelvesSpanned != len(shelves) {
			t.Fatalf("group %d spanned count %d, want %d", g.ID, g.ShelvesSpanned, len(shelves))
		}
		spanned += float64(g.ShelvesSpanned)
		if len(sys.Shelves) >= 3 {
			multi++
			if g.ShelvesSpanned > 3 {
				t.Fatalf("group %d spans %d shelves, profile says 3", g.ID, g.ShelvesSpanned)
			}
		}
	}
	avg := spanned / float64(len(f.Groups))
	// The paper: "a RAID group on average spans about 3 shelves". Low-end
	// systems with 1-2 shelves drag the average below 3.
	if avg < 2.0 || avg > 3.2 {
		t.Errorf("average shelves spanned %g, want ~2.5-3", avg)
	}
}

func TestSingleShelfSpanAblation(t *testing.T) {
	profiles := DefaultProfiles()
	for i := range profiles {
		profiles[i].SpanShelves = 1
	}
	// A group only draws from its window's shelves.
	f := Build(profiles, 0.01, 42)
	for _, g := range f.Groups {
		if g.ShelvesSpanned != 1 {
			t.Fatalf("group %d spans %d shelves under span=1", g.ID, g.ShelvesSpanned)
		}
	}
}

func TestInstallWindows(t *testing.T) {
	f := buildSmall(t)
	span := float64(simtime.StudyDuration)
	profileByClass := map[SystemClass]ClassProfile{}
	for _, p := range DefaultProfiles() {
		profileByClass[p.Class] = p
	}
	for _, sys := range f.Systems {
		frac := float64(sys.Install) / span
		p := profileByClass[sys.Class]
		if frac < p.InstallWindow.Start-1e-9 || frac > p.InstallWindow.End+1e-9 {
			t.Fatalf("%s system installed at fraction %g outside window [%g, %g]",
				sys.Class, frac, p.InstallWindow.Start, p.InstallWindow.End)
		}
	}
}

func TestDiskModelCatalog(t *testing.T) {
	if len(AllDiskModels) != 20 {
		t.Fatalf("the paper studies 20 disk models, catalog has %d", len(AllDiskModels))
	}
	families := map[string]bool{}
	sata := 0
	for _, m := range AllDiskModels {
		families[m.Family] = true
		if m.Type == SATA {
			sata++
		}
	}
	if len(families) < 9 {
		t.Errorf("the paper has at least 9 disk families, catalog has %d", len(families))
	}
	if sata != 5 {
		t.Errorf("catalog should have 5 SATA models, has %d", sata)
	}
	// Near-line systems use only SATA; primary classes only FC.
	f := buildSmall(t)
	for _, sys := range f.Systems {
		if sys.Class == NearLine && sys.DiskModel.Type != SATA {
			t.Fatalf("near-line system with %s disk", sys.DiskModel.Type)
		}
		if sys.Class != NearLine && sys.DiskModel.Type != FC {
			t.Fatalf("%s system with %s disk", sys.Class, sys.DiskModel.Type)
		}
	}
}

func TestAddReplacementDisk(t *testing.T) {
	f := buildSmall(t)
	orig := f.Disks[0]
	before := len(f.Disks)
	at := simtime.Seconds(1000000)
	id := f.Replace(0, at)
	if id != before || len(f.Disks) != before+1 {
		t.Fatalf("replacement ID %d in %d disks, want the new last index %d", id, len(f.Disks), before)
	}
	nd := f.Disks[id]
	if nd.System != orig.System || nd.Shelf != orig.Shelf || nd.Slot != orig.Slot || nd.RAIDGrp != orig.RAIDGrp {
		t.Error("replacement must inherit system/shelf/slot/group")
	}
	if nd.Install != at || nd.Remove != simtime.StudyDuration || nd.Replaced {
		t.Error("replacement residency wrong")
	}
	if f.Disks[0] != orig {
		t.Error("Replace must leave the failed disk's record to the caller")
	}
	if got, ok := ParseSerial(Serial(id), len(f.Disks)); !ok || got != id {
		t.Errorf("replacement %d: serial resolves to (%d, %v)", id, got, ok)
	}
	mounts := f.Shelves[orig.Shelf].Disks
	if mounts[len(mounts)-1] != id {
		t.Error("replacement not appended to its shelf's mount list")
	}
}

// TestReplaceChainGrowth drives the simulator's slot chain — each
// replacement fails in turn and is replaced, Replace reading the failed
// record out of the slab it appends to — long enough that the disk slab
// regrows mid-chain, and requires exactly the records and mount list a
// fleet with room for the whole chain produces.
func TestReplaceChainGrowth(t *testing.T) {
	const n, room = 500, 250
	chain := func(f *Fleet) {
		cur := f.Replace(7, 100)
		for k := 1; k < n; k++ {
			d := &f.Disks[cur]
			d.Remove = d.Install + simtime.Seconds(k)
			d.Replaced = true
			cur = f.Replace(cur, d.Remove+10)
		}
	}

	grown := BuildDefault(0.005, 3)
	base := len(grown.Disks)
	grown.Disks = grown.Disks[: base : base+room]
	chain(grown)
	if cap(grown.Disks) == base+room {
		t.Fatal("setup: the disk slab never regrew mid-chain")
	}
	roomy := BuildDefault(0.005, 3)
	roomy.Disks = append(make([]Disk, 0, base+n), roomy.Disks...)
	chain(roomy)

	if len(grown.Disks) != base+n || !slices.Equal(grown.Disks, roomy.Disks) {
		t.Fatal("a chain that regrew the disk slab differs from one with room for it")
	}
	shelf := grown.Disks[7].Shelf
	if !slices.Equal(grown.Shelves[shelf].Disks, roomy.Shelves[shelf].Disks) {
		t.Fatal("a chain that regrew the disk slab left a different mount list")
	}
	for k := 1; k < n; k++ {
		prev, d := grown.Disks[base+k-1], grown.Disks[base+k]
		if !prev.Replaced || d.Install != prev.Remove+10 || d.Shelf != shelf || d.Slot != grown.Disks[7].Slot {
			t.Fatalf("chain link %d: %+v after %+v", k, d, prev)
		}
	}
}

func TestDiskYears(t *testing.T) {
	f := buildSmall(t)
	all := f.DiskYears(nil)
	if all <= 0 {
		t.Fatal("fleet disk-years must be positive")
	}
	sata := f.DiskYears(func(d *Disk) bool { return f.Systems[d.System].DiskModel.Type == SATA })
	fc := f.DiskYears(func(d *Disk) bool { return f.Systems[d.System].DiskModel.Type == FC })
	if math.Abs(sata+fc-all) > 1e-6 {
		t.Error("SATA + FC disk-years must sum to the total")
	}
}

func TestBuildPanicsOnBadScale(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("scale <= 0 should panic")
		}
	}()
	BuildDefault(0, 1)
}

func TestEnumStrings(t *testing.T) {
	cases := map[string]string{
		NearLine.String():   "Near-line",
		LowEnd.String():     "Low-end",
		MidRange.String():   "Mid-range",
		HighEnd.String():    "High-end",
		SATA.String():       "SATA",
		FC.String():         "FC",
		RAID4.String():      "RAID4",
		RAID6.String():      "RAID6",
		SinglePath.String(): "single-path",
		DualPath.String():   "dual-path",
		DiskA2.String():     "A-2",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if RAID4.ParityDisks() != 1 || RAID6.ParityDisks() != 2 {
		t.Error("parity counts wrong")
	}
}
