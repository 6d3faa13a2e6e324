package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
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
	for _, sh := range f.Shelves {
		w(int(sh.ID), int(sh.System), int(sh.Index))
		h.Write([]byte(f.Systems[sh.System].ShelfModel))
		w(f.ShelfDisks(nil, int(sh.ID))...)
	}
	for id, d := range allDisks(f) {
		sys := int(f.Shelves[d.Shelf].System)
		w(id, sys, int(d.Shelf), int(d.Slot), int(d.RAIDGrp), int(d.Install), int(d.Remove))
		h.Write(AppendSerial(nil, id))
		h.Write([]byte(f.Systems[sys].DiskModel.String()))
	}
	for _, g := range f.Groups {
		w(int(g.ID), int(g.System), int(g.Type), g.ShelvesSpanned)
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
	for i, sh := range f.Shelves {
		if int(sh.ID) != i {
			t.Fatalf("shelf at index %d has ID %d", i, sh.ID)
		}
	}
	for i, g := range f.Groups {
		if int(g.ID) != i {
			t.Fatalf("group at index %d has ID %d", i, g.ID)
		}
	}
	nextShelf, nextDisk, nextGroup, nextMember := 0, 0, 0, 0
	for _, s := range f.Systems {
		if int(s.Shelves.Lo) != nextShelf || int(s.RAIDGroups.Lo) != nextGroup {
			t.Fatalf("system %d spans shelves %v, groups %v; want them to start at %d, %d",
				s.ID, s.Shelves, s.RAIDGroups, nextShelf, nextGroup)
		}
		for _, sh := range f.Shelves[s.Shelves.Lo:s.Shelves.Hi] {
			if int(sh.System) != s.ID || int(sh.Disks.Lo) != nextDisk {
				t.Fatalf("shelf %d: system %d, disks %v; want system %d, disks from %d",
					sh.ID, sh.System, sh.Disks, s.ID, nextDisk)
			}
			for id := sh.Disks.Lo; id < sh.Disks.Hi; id++ {
				if d := f.Disk(int(id)); d.Shelf != sh.ID {
					t.Fatalf("disk %d in shelf %d's span names shelf %d", id, sh.ID, d.Shelf)
				}
			}
			nextShelf++
			nextDisk = int(sh.Disks.Hi)
		}
		for _, g := range f.Groups[s.RAIDGroups.Lo:s.RAIDGroups.Hi] {
			if int(g.System) != s.ID || int(g.Members.Lo) != nextMember {
				t.Fatalf("group %d: system %d, members %v; want system %d, members from %d",
					g.ID, g.System, g.Members, s.ID, nextMember)
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
	for _, g := range f.Groups {
		for _, diskID := range f.Members[g.Members.Lo:g.Members.Hi] {
			if d := f.Disk(int(diskID)); d.RAIDGrp != g.ID {
				t.Fatalf("group %d member %d points at group %d", g.ID, diskID, d.RAIDGrp)
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

// TestBuildAllocBudget bounds steady-state build allocations, PR 2
// budget-test style. Outputs live in value slabs and serials are
// derived, never stored, so the allocation count is a small constant —
// independent of the system count — rather than the O(disks) of the
// legacy builder (which allocated ~90k times for this population's
// 0.01-scale half, dominated by a per-system map pre-sized to the whole
// fleet's disk count).
func TestBuildAllocBudget(t *testing.T) {
	f := BuildDefault(0.02, 42)
	allocs := testing.AllocsPerRun(2, func() {
		BuildDefault(0.02, 42)
	})
	const budget = 512
	if allocs > budget {
		t.Errorf("build of %d systems / %d disks allocated %.0f times, budget %d",
			len(f.Systems), f.NumDisks(), allocs, budget)
	}
}

// TestBuildAllocatesOnlyTheFleet holds Build to allocating the fleet
// and little else: the census sizes every slab before the fill writes
// into it, so a build's total allocation stays within a tenth of the
// fleet's ApproxBytes plus a fixed allowance for per-class weights and
// layout scratch, and the system and shelf slabs are exactly full.
func TestBuildAllocatesOnlyTheFleet(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f := BuildDefault(0.05, 53)
	runtime.ReadMemStats(&after)

	const scratch = 64 << 10
	total := after.TotalAlloc - before.TotalAlloc
	if budget := 1.1*float64(f.ApproxBytes()) + scratch; float64(total) > budget {
		t.Errorf("build allocated %d bytes for a fleet of %d (ApproxBytes); budget %.0f",
			total, f.ApproxBytes(), budget)
	}
	if cap(f.Systems) != len(f.Systems) || cap(f.Shelves) != len(f.Shelves) {
		t.Errorf("system slab %d/%d, shelf slab %d/%d (len/cap): want exact",
			len(f.Systems), cap(f.Systems), len(f.Shelves), cap(f.Shelves))
	}
}
