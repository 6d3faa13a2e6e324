package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"testing"

	"storagesubsys/internal/stats"
)

// fleetDigest hashes every field of every component in ID order, so two
// fleets digest equal iff they are bit-identical topologies. Disk IDs
// (each disk's index), each disk's system, shelf and disk models, disk
// serials and every ID list — a system's shelves and groups, a shelf's
// mounted disks (ShelfDisks), a group's members — are hashed from the
// derived values, in the byte order the digests were recorded with when
// they were stored per component.
func fleetDigest(f *Fleet) uint64 {
	h := fnv.New64a()
	w := func(vs ...int) {
		for _, v := range vs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	span := func(s Span) {
		for id := s.Lo; id < s.Hi; id++ {
			w(int(id))
		}
	}
	for _, s := range f.Systems {
		w(s.ID, int(s.Class), int(s.Paths), int(s.Install))
		h.Write([]byte(s.ShelfModel))
		h.Write([]byte(s.DiskModel.String()))
		span(s.Shelves)
		span(s.RAIDGroups)
	}
	for i, sh := range f.Shelves {
		w(i, int(sh.System), f.ShelfIndex(i))
		h.Write([]byte(f.Systems[sh.System].ShelfModel))
		w(f.ShelfDisks(nil, i)...)
	}
	for id, d := range allDisks(f) {
		sys := int(f.Shelves[d.Shelf].System)
		w(id, sys, int(d.Shelf), int(d.Slot), int(d.RAIDGrp), int(d.Install), int(d.Remove))
		h.Write(AppendSerial(nil, id))
		h.Write([]byte(f.Systems[sys].DiskModel.String()))
	}
	for i, g := range f.Groups {
		w(i, int(g.System), int(g.Type), int(g.ShelvesSpanned))
		for _, id := range f.Members[g.Members.Lo:g.Members.Hi] {
			w(int(id))
		}
	}
	return h.Sum64()
}

// TestBuildGoldenDigest pins the exact topologies Build produces to
// digests recorded from the legacy pointer-per-item builder, proving
// that no rewrite since — the census-and-fill build included — shifted
// an RNG stream. If a change deliberately alters construction
// randomness, re-derive these digests the same way the core
// calibration seed was re-derived.
func TestBuildGoldenDigest(t *testing.T) {
	cases := []struct {
		scale                           float64
		seed                            int64
		systems, shelves, disks, groups int
		digest                          uint64
	}{
		{0.01, 42, 391, 1596, 16404, 2065, 0xfce4b3bf82930511},
		{0.02, 9, 783, 3141, 32520, 4106, 0xcb3102897248b6a4},
		{0.05, 53, 1956, 7806, 80511, 10106, 0x1f83f6d65db2589a},
	}
	for _, tc := range cases {
		f := BuildDefault(tc.scale, tc.seed)
		if len(f.Systems) != tc.systems || len(f.Shelves) != tc.shelves ||
			f.NumDisks() != tc.disks || len(f.Groups) != tc.groups {
			t.Errorf("scale=%g seed=%d: population %d/%d/%d/%d, want %d/%d/%d/%d",
				tc.scale, tc.seed, len(f.Systems), len(f.Shelves), f.NumDisks(), len(f.Groups),
				tc.systems, tc.shelves, tc.disks, tc.groups)
			continue
		}
		if d := fleetDigest(f); d != tc.digest {
			t.Errorf("scale=%g seed=%d: digest %016x, want %016x",
				tc.scale, tc.seed, d, tc.digest)
		}
	}
}

// TestBuildSpliceOrder checks the ID invariants the fill guarantees by
// writing each component at its index in build order: components are
// indexed by ID, classes appear in profile order, every system's
// shelves / disks / groups occupy contiguous ID ranges in system order,
// and every disk's serial resolves back to its ID.
func TestBuildSpliceOrder(t *testing.T) {
	f := BuildDefault(0.02, 42)
	for i, s := range f.Systems {
		if s.ID != i {
			t.Fatalf("system at index %d has ID %d", i, s.ID)
		}
		if i > 0 && s.Class < f.Systems[i-1].Class {
			t.Fatalf("system %d class %v out of profile order after %v",
				i, s.Class, f.Systems[i-1].Class)
		}
	}
	nextShelf, nextDisk, nextGroup, nextMember := 0, 0, 0, 0
	for _, s := range f.Systems {
		if int(s.Shelves.Lo) != nextShelf || int(s.RAIDGroups.Lo) != nextGroup {
			t.Fatalf("system %d spans shelves %v, groups %v; want them to start at %d, %d",
				s.ID, s.Shelves, s.RAIDGroups, nextShelf, nextGroup)
		}
		for si := s.Shelves.Lo; si < s.Shelves.Hi; si++ {
			sh := f.Shelves[si]
			if int(sh.System) != s.ID || int(sh.Disks.Lo) != nextDisk {
				t.Fatalf("shelf %d: system %d, disks %v; want system %d, disks from %d",
					si, sh.System, sh.Disks, s.ID, nextDisk)
			}
			if got, want := f.ShelfIndex(int(si)), int(si-s.Shelves.Lo); got != want {
				t.Fatalf("shelf %d: ShelfIndex %d, want %d", si, got, want)
			}
			for id := sh.Disks.Lo; id < sh.Disks.Hi; id++ {
				if d := f.Disk(int(id)); d.Shelf != si {
					t.Fatalf("disk %d in shelf %d's span names shelf %d", id, si, d.Shelf)
				}
			}
			nextShelf++
			nextDisk = int(sh.Disks.Hi)
		}
		for gi := s.RAIDGroups.Lo; gi < s.RAIDGroups.Hi; gi++ {
			g := f.Groups[gi]
			if int(g.System) != s.ID || int(g.Members.Lo) != nextMember {
				t.Fatalf("group %d: system %d, members %v; want system %d, members from %d",
					gi, g.System, g.Members, s.ID, nextMember)
			}
			nextGroup++
			nextMember = int(g.Members.Hi)
		}
	}
	if nextMember != len(f.Members) {
		t.Fatalf("groups span %d members, want %d", nextMember, len(f.Members))
	}
	if nextShelf != len(f.Shelves) || nextDisk != f.NumDisks() || nextGroup != len(f.Groups) {
		t.Fatalf("systems span %d/%d/%d components, want %d/%d/%d",
			nextShelf, nextDisk, nextGroup, len(f.Shelves), f.NumDisks(), len(f.Groups))
	}
	for i := range f.NumDisks() {
		if id, ok := ParseSerial(Serial(i), f.NumDisks()); !ok || id != i {
			t.Fatalf("disk %d serial %q resolves to (%d, %v)", i, Serial(i), id, ok)
		}
	}
	for gi, g := range f.Groups {
		for _, diskID := range f.Members[g.Members.Lo:g.Members.Hi] {
			if d := f.Disk(int(diskID)); int(d.RAIDGrp) != gi {
				t.Fatalf("group %d member %d points at group %d", gi, diskID, d.RAIDGrp)
			}
		}
	}
}

// TestSerialEncoding pins the fixed-width encoder to the historical
// fmt.Sprintf("S%08X", id) format, including IDs that outgrow 8 digits.
func TestSerialEncoding(t *testing.T) {
	ids := []int{0, 1, 9, 0xF, 0x10, 255, 16404, 0xFFFFFFF, 0xDEADBEEF,
		1 << 32, 1<<40 - 1}
	for _, id := range ids {
		want := fmt.Sprintf("S%08X", id)
		if got := Serial(id); got != want {
			t.Errorf("Serial(%d) = %q, want %q", id, got, want)
		}
		if got := serialLen(id); got != len(want) {
			t.Errorf("serialLen(%d) = %d, want %d", id, got, len(want))
		}
	}
	buf := AppendSerial([]byte("x"), 0xAB)
	if string(buf) != "xS000000AB" {
		t.Errorf("AppendSerial = %q", buf)
	}
}

// TestDrawCountSmallMean pins the mean <= 1 contract: the count is the
// floor value 1 (structures are never built empty) and, since both
// outcomes of the old Bernoulli draw were identical, no randomness is
// consumed — so profiles with small fractional means stay decoupled
// from the draws that follow. It also pins that every default profile
// mean exceeds 1, which is why fixing the old dead draw required no
// seed re-derivation.
func TestDrawCountSmallMean(t *testing.T) {
	for _, mean := range []float64{0, 0.3, 0.9999, 1} {
		r := stats.NewRNG(77)
		fresh := stats.NewRNG(77)
		if got := drawCount(mean, r); got != 1 {
			t.Errorf("drawCount(%g) = %d, want 1", mean, got)
		}
		if r.Uint64() != fresh.Uint64() {
			t.Errorf("drawCount(%g) consumed randomness", mean)
		}
	}
	for _, p := range DefaultProfiles() {
		if p.ShelvesPerSystem <= 1 || p.DisksPerShelf <= 1 {
			t.Errorf("%s profile has mean <= 1 (%g shelves, %g disks): the no-re-derivation argument no longer holds",
				p.Class, p.ShelvesPerSystem, p.DisksPerShelf)
		}
	}
}

// TestBuildSmallMeanProfile exercises the mean <= 1 branch end to end:
// every system gets exactly one shelf and one disk, in singleton RAID
// groups.
func TestBuildSmallMeanProfile(t *testing.T) {
	profiles := []ClassProfile{{
		Class:            LowEnd,
		NumSystems:       40,
		ShelvesPerSystem: 0.4,
		DisksPerShelf:    0.9,
		RAIDGroupSize:    1,
		SpanShelves:      1,
		Configs:          []ShelfConfig{{ShelfA, DiskA2, 1}},
	}}
	f := Build(profiles, 1.0, 5)
	if len(f.Systems) != 40 || len(f.Shelves) != 40 || f.NumDisks() != 40 {
		t.Fatalf("population %d/%d/%d, want 40/40/40",
			len(f.Systems), len(f.Shelves), f.NumDisks())
	}
	for _, g := range f.Groups {
		if g.Members.Len() != 1 || g.ShelvesSpanned != 1 {
			t.Fatalf("group %+v, want singleton", g)
		}
	}
}

// withProcs runs fn with runtime.GOMAXPROCS set to procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestBuildIndependentOfProcs builds under GOMAXPROCS 1, 2, 3 and 8,
// each with chunks of 1, 7 and chunkSystems systems, and requires all
// four slabs to equal a serial build's, bytes past their lengths
// included. Chunk edges fall inside classes and at their ends: at 0.01
// scale only the low-end class outgrows one chunk of chunkSystems, at
// 0.05 every class does. The random profiles are
// TestLayoutMatchesQueueOracle's, with one class laying out no groups
// (RAIDGroupSize 0) and one striping each group over a single shelf
// (SpanShelves 1).
func TestBuildIndependentOfProcs(t *testing.T) {
	type input struct {
		name     string
		profiles []ClassProfile
		scale    float64
		seed     int64
	}
	inputs := []input{
		{"default 0.01", DefaultProfiles(), 0.01, 42},
		{"default 0.05", DefaultProfiles(), 0.05, 53},
	}
	rng := stats.NewRNG(2508)
	for trial := range 8 {
		profiles := randomProfiles(rng)
		profiles[trial%4].RAIDGroupSize = 0
		profiles[(trial+1)%4].SpanShelves = 1
		inputs = append(inputs, input{fmt.Sprintf("random %d", trial), profiles, 1, int64(trial)})
	}
	whole := func(f *Fleet) ([]RAIDGroup, []int32) {
		return f.Groups[:cap(f.Groups)], f.Members[:cap(f.Members)]
	}
	for _, in := range inputs {
		var want *Fleet
		withProcs(1, func() { want = build(in.profiles, in.scale, in.seed, chunkSystems) })
		wantGroups, wantMembers := whole(want)
		for _, procs := range []int{1, 2, 3, 8} {
			for _, size := range []int{1, 7, chunkSystems} {
				var f *Fleet
				withProcs(procs, func() { f = build(in.profiles, in.scale, in.seed, size) })
				groups, members := whole(f)
				if !slices.Equal(f.Systems, want.Systems) || !slices.Equal(f.Shelves, want.Shelves) ||
					len(f.Groups) != len(want.Groups) || !slices.Equal(groups, wantGroups) ||
					len(f.Members) != len(want.Members) || !slices.Equal(members, wantMembers) {
					t.Fatalf("%s: the build at GOMAXPROCS %d in chunks of %d differs from the serial build",
						in.name, procs, size)
				}
			}
		}
	}
}

// overflowProfiles returns a normal class followed by two whose
// install windows lie a century and two before the study, so every
// system of either overflows the disk record's int32 seconds.
func overflowProfiles() []ClassProfile {
	profiles := DefaultProfiles()[:3]
	profiles[1].InstallWindow.Start, profiles[1].InstallWindow.End = -100, -99
	profiles[2].InstallWindow.Start, profiles[2].InstallWindow.End = -200, -199
	return profiles
}

// panicOf returns the value fn panics with, nil if it returns.
func panicOf(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestBuildPanicsOnInstallOverflow requires a profile whose install
// window reaches past the disk record's int32 seconds to panic, not to
// wrap its install times. The overflowing classes follow a normal one
// and every chunk of theirs panics, yet the panic a build raises at
// GOMAXPROCS 4 is a serial build's: the first overflowing system's.
func TestBuildPanicsOnInstallOverflow(t *testing.T) {
	profiles := overflowProfiles()
	var want any
	withProcs(1, func() { want = panicOf(func() { Build(profiles, 0.05, 1) }) })
	if msg, ok := want.(string); !ok || !strings.HasPrefix(msg, "fleet: install time -") {
		t.Fatalf("a serial build panicked with %v, want the install overflow", want)
	}
	withProcs(4, func() {
		for _, size := range []int{1, 7, chunkSystems} {
			for range 10 {
				if got := panicOf(func() { build(profiles, 0.05, 1, size) }); got != want {
					t.Fatalf("in chunks of %d the build panicked with %v, want %v", size, got, want)
				}
			}
		}
	})
}

// TestBuildPanicsOnWideSpan: a profile whose RAID span and shelf count
// would let a group span more shelves than RAIDGroup's uint8
// ShelvesSpanned holds is refused before anything is built, and the
// widest span that fits builds.
func TestBuildPanicsOnWideSpan(t *testing.T) {
	wide := func(span int) []ClassProfile {
		profiles := DefaultProfiles()[:1]
		profiles[0].NumSystems = 1
		profiles[0].ShelvesPerSystem = 200
		profiles[0].SpanShelves = span
		return profiles
	}
	if got := panicOf(func() { Build(wide(256), 1, 1) }); got != "fleet: RAID span exceeds the group record's uint8 ShelvesSpanned" {
		t.Fatalf("a 256-shelf span panicked with %v, want the span panic", got)
	}
	if got := panicOf(func() { Build(wide(255), 1, 1) }); got != nil {
		t.Fatalf("a 255-shelf span panicked with %v", got)
	}
}

// TestLayoutPanicsPastItsWindow: a layout whose group window is one
// short of the system's groups panics rather than letting append
// regrow the window off the fleet's slab.
func TestLayoutPanicsPastItsWindow(t *testing.T) {
	f := BuildDefault(0.002, 3)
	chunks, _ := planChunks(DefaultProfiles(), 0.002, 3, chunkSystems)
	c := chunks[0]
	sys := f.Systems[0]
	if sys.RAIDGroups.Len() == 0 {
		t.Fatal("setup: the first system has no groups")
	}
	b := builder{
		f:       f,
		groups:  make([]RAIDGroup, 0, sys.RAIDGroups.Len()-1),
		members: make([]int32, 0, len(f.Members)),
	}
	r := c.stream(0)
	b.drawShape(c.p, c.weights, &r)
	got := panicOf(func() { b.layoutRAIDGroups(0, sys.Shelves, c.p, &r) })
	if msg, ok := got.(string); !ok || !strings.Contains(msg, "outgrew") {
		t.Fatalf("the layout past its window panicked with %v, want the bound's panic", got)
	}
}

// faultyPass is a build pass that indexes past a nil slice.
func faultyPass(_ *builder, c *chunk) {
	var none []int
	c.shelves = none[c.lo]
}

// TestChunkRuntimeErrorKeepsItsStack: a runtime error in a chunk
// reaches run's caller still a runtime.Error, and its message holds the
// stack it was raised on, down to the faulting function and line.
func TestChunkRuntimeErrorKeepsItsStack(t *testing.T) {
	withProcs(4, func() {
		p := newPool(DefaultProfiles(), 0.05, 1, chunkSystems)
		got := panicOf(func() { p.run(faultyPass) })
		err, ok := got.(runtime.Error)
		if !ok {
			t.Fatalf("the pass panicked with %v, want a runtime.Error", got)
		}
		msg := err.Error()
		for _, want := range []string{"index out of range", "fleet.faultyPass", "build_test.go:"} {
			if !strings.Contains(msg, want) {
				t.Errorf("the re-raised error does not name %q:\n%s", want, msg)
			}
		}
	})
}

// TestBuildAllocBudget bounds steady-state build allocations, PR 2
// budget-test style, on this machine's processors and on four. Outputs
// live in value slabs and serials are derived, never stored, so the
// allocation count is a small constant — independent of the system
// count — rather than the O(disks) of the legacy builder (which
// allocated ~90k times for this population's 0.01-scale half,
// dominated by a per-system map pre-sized to the whole fleet's disk
// count).
func TestBuildAllocBudget(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 4} {
		withProcs(procs, func() {
			f := BuildDefault(0.02, 42)
			allocs := testing.AllocsPerRun(2, func() {
				BuildDefault(0.02, 42)
			})
			const budget = 512
			if allocs > budget {
				t.Errorf("GOMAXPROCS %d: build of %d systems / %d disks allocated %.0f times, budget %d",
					procs, len(f.Systems), f.NumDisks(), allocs, budget)
			}
		})
	}
}

// TestBuildAllocatesOnlyTheFleet holds Build to allocating the fleet
// and little else, on this machine's processors and on four: the
// census sizes every slab before the fill writes into it, so a build's
// total allocation stays within a tenth of the fleet's ApproxBytes
// plus a fixed allowance for the chunk plan, per-class weights and
// the workers' scratch, and the system and shelf slabs are exactly
// full.
func TestBuildAllocatesOnlyTheFleet(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 4} {
		withProcs(procs, func() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f := BuildDefault(0.05, 53)
			runtime.ReadMemStats(&after)

			const scratch = 64 << 10
			total := after.TotalAlloc - before.TotalAlloc
			if budget := 1.1*float64(f.ApproxBytes()) + scratch; float64(total) > budget {
				t.Errorf("GOMAXPROCS %d: build allocated %d bytes for a fleet of %d (ApproxBytes); budget %.0f",
					procs, total, f.ApproxBytes(), budget)
			}
			if cap(f.Systems) != len(f.Systems) || cap(f.Shelves) != len(f.Shelves) {
				t.Errorf("system slab %d/%d, shelf slab %d/%d (len/cap): want exact",
					len(f.Systems), cap(f.Systems), len(f.Shelves), cap(f.Shelves))
			}
		})
	}
}
