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
	if len(a.Systems) != len(b.Systems) || a.NumDisks() != b.NumDisks() {
		t.Fatal("same seed must build the same fleet")
	}
	for i := range a.NumDisks() {
		if a.Disk(i) != b.Disk(i) {
			t.Fatal("disk placement must be deterministic")
		}
	}
	c := BuildDefault(0.01, 8)
	if c.NumDisks() == a.NumDisks() {
		// Counts can collide, but placements should differ somewhere.
		same := true
		for i := range c.NumDisks() {
			if c.Disk(i).Shelf != a.Disk(i).Shelf {
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
	type census struct{ Systems, Shelves, Disks, DualPath int }
	byClass := map[SystemClass]*census{}
	for _, c := range Classes {
		byClass[c] = &census{}
	}
	for _, s := range f.Systems {
		c := byClass[s.Class]
		c.Systems++
		c.Shelves += s.Shelves.Len()
		if s.Paths == DualPath {
			c.DualPath++
		}
	}
	for _, d := range allDisks(f) {
		byClass[f.Systems[f.Shelves[d.Shelf].System].Class].Disks++
	}
	if len(byClass) != 4 {
		t.Fatalf("want 4 classes, got %d", len(byClass))
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
	for id, d := range allDisks(f) {
		if d.Slot >= MaxDisksPerShelf {
			t.Fatalf("disk %d slot %d out of range", id, d.Slot)
		}
		if sh := f.Shelves[d.Shelf]; id < int(sh.Disks.Lo) || id >= int(sh.Disks.Hi) {
			t.Fatalf("disk %d lies outside its shelf's span %v", id, sh.Disks)
		}
		if d.Install < 0 || simtime.Seconds(d.Remove) > simtime.StudyDuration || d.Remove < d.Install {
			t.Fatalf("disk %d residency [%d, %d] invalid", id, d.Install, d.Remove)
		}
		if d.RAIDGrp >= 0 {
			g := f.Groups[d.RAIDGrp]
			if !slices.Contains(f.Members[g.Members.Lo:g.Members.Hi], int32(id)) {
				t.Fatalf("disk %d claims group %d but is not a member", id, d.RAIDGrp)
			}
		}
	}
	for _, sh := range f.Shelves {
		if sh.Disks.Len() > MaxDisksPerShelf {
			t.Fatalf("shelf %d has %d disks (max %d)", sh.ID, sh.Disks.Len(), MaxDisksPerShelf)
		}
		slots := map[uint8]bool{}
		for id := sh.Disks.Lo; id < sh.Disks.Hi; id++ {
			d := f.Disk(int(id))
			if slots[d.Slot] {
				t.Fatalf("shelf %d slot %d double-occupied at build time", sh.ID, d.Slot)
			}
			slots[d.Slot] = true
		}
	}
	for _, sys := range f.Systems {
		if sys.Shelves.Len() == 0 {
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
		if g.Members.Len() != p.RAIDGroupSize {
			t.Fatalf("group %d (%s) has %d disks, want %d", g.ID, sys.Class, g.Members.Len(), p.RAIDGroupSize)
		}
		// Members must belong to the owning system.
		shelves := map[int]bool{}
		for _, id := range f.Members[g.Members.Lo:g.Members.Hi] {
			shelf := f.Disk(int(id)).Shelf
			if f.Shelves[shelf].System != g.System {
				t.Fatalf("group %d member from another system", g.ID)
			}
			shelves[int(shelf)] = true
		}
		if g.ShelvesSpanned != len(shelves) {
			t.Fatalf("group %d spanned count %d, want %d", g.ID, g.ShelvesSpanned, len(shelves))
		}
		spanned += float64(g.ShelvesSpanned)
		if sys.Shelves.Len() >= 3 {
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

// deployedModels lists the distinct disk models the default profiles
// deploy, in profile order.
func deployedModels() []DiskModel {
	var models []DiskModel
	for _, p := range DefaultProfiles() {
		for _, c := range p.Configs {
			if !slices.Contains(models, c.Disk) {
				models = append(models, c.Disk)
			}
		}
	}
	return models
}

func TestDiskModelCatalog(t *testing.T) {
	models := deployedModels()
	if len(models) != 20 {
		t.Fatalf("the paper studies 20 disk models, the profiles deploy %d", len(models))
	}
	families := map[string]bool{}
	sata := 0
	for _, m := range models {
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
	orig := f.Disk(0)
	before := f.NumDisks()
	at := simtime.Seconds(1000000)
	id := f.Replace(orig, at)
	if id != before || f.NumDisks() != before+1 {
		t.Fatalf("replacement ID %d in %d disks, want the new last index %d", id, f.NumDisks(), before)
	}
	nd := f.Disk(id)
	if nd.Shelf != orig.Shelf || nd.Slot != orig.Slot || nd.RAIDGrp != orig.RAIDGrp {
		t.Error("replacement must inherit shelf/slot/group")
	}
	if simtime.Seconds(nd.Install) != at || simtime.Seconds(nd.Remove) != simtime.StudyDuration || nd.Replaced {
		t.Error("replacement residency wrong")
	}
	if f.Disk(0) != orig {
		t.Error("Replace must leave the failed disk's record to the caller")
	}
	if got, ok := ParseSerial(Serial(id), f.NumDisks()); !ok || got != id {
		t.Errorf("replacement %d: serial resolves to (%d, %v)", id, got, ok)
	}
	if mounts := f.ShelfDisks(nil, int(orig.Shelf)); mounts[len(mounts)-1] != id {
		t.Error("replacement not listed last among its shelf's disks")
	}
}

// TestReplaceChainGrowth drives the simulator's slot chain — each
// replacement fails in turn and is replaced — long enough that the
// fleet's replacement records regrow mid-chain, and requires exactly
// the records and shelf disk list a fleet with room for the whole
// chain produces.
func TestReplaceChainGrowth(t *testing.T) {
	const n, room = 500, 250
	chain := func(f *Fleet) {
		cur := f.Replace(f.Disk(7), 100)
		for k := 1; k < n; k++ {
			d := f.Disk(cur)
			f.Remove(cur, simtime.Seconds(d.Install)+simtime.Seconds(k), true)
			cur = f.Replace(d, simtime.Seconds(d.Install)+simtime.Seconds(k)+10)
		}
	}

	grown := BuildDefault(0.005, 3)
	base := grown.NumDisks()
	grown.repl = make([]Disk, 0, room)
	chain(grown)
	if cap(grown.repl) == room {
		t.Fatal("setup: the replacement records never regrew mid-chain")
	}
	roomy := BuildDefault(0.005, 3)
	roomy.repl = make([]Disk, 0, n)
	chain(roomy)

	if grown.NumDisks() != base+n || !slices.Equal(allDisks(grown), allDisks(roomy)) {
		t.Fatal("a chain that regrew the replacement records differs from one with room for it")
	}
	first := grown.Disk(7)
	if !slices.Equal(grown.ShelfDisks(nil, int(first.Shelf)), roomy.ShelfDisks(nil, int(first.Shelf))) {
		t.Fatal("a chain that regrew the replacement records left a different shelf disk list")
	}
	for k := 1; k < n; k++ {
		prev, d := grown.Disk(base+k-1), grown.Disk(base+k)
		if !prev.Replaced || d.Install != prev.Remove+10 || d.Shelf != first.Shelf || d.Slot != first.Slot {
			t.Fatalf("chain link %d: %+v after %+v", k, d, prev)
		}
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
