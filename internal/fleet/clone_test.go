// Clone tests: equality with the original, a shared read-only
// topology, delta isolation in both directions, cloning while the
// source is simulated on, concurrent trials on one Shared's fleets, and
// trial equivalence — a simulation run against a clone must be
// bit-identical to one against a freshly built fleet. External test
// package so it can drive internal/sim.
package fleet_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/simtime"
)

func TestCloneEqualsOriginal(t *testing.T) {
	f := fleet.BuildDefault(0.002, 11)
	c := f.Clone()
	if !reflect.DeepEqual(f, c) {
		t.Fatal("clone differs from the original fleet")
	}
}

// TestSharedTopologySlabs holds Clone to the sharing contract: the
// clone's four topology slabs are the source's backing arrays, not
// copies, and only its delta is its own.
func TestSharedTopologySlabs(t *testing.T) {
	f := fleet.BuildDefault(0.002, 11)
	c := f.Clone()
	for _, s := range []struct {
		name     string
		src, cln unsafe.Pointer
	}{
		{"Systems", unsafe.Pointer(unsafe.SliceData(f.Systems)), unsafe.Pointer(unsafe.SliceData(c.Systems))},
		{"Shelves", unsafe.Pointer(unsafe.SliceData(f.Shelves)), unsafe.Pointer(unsafe.SliceData(c.Shelves))},
		{"Groups", unsafe.Pointer(unsafe.SliceData(f.Groups)), unsafe.Pointer(unsafe.SliceData(c.Groups))},
		{"Members", unsafe.Pointer(unsafe.SliceData(f.Members)), unsafe.Pointer(unsafe.SliceData(c.Members))},
	} {
		if s.src != s.cln {
			t.Errorf("clone's %s slab is a copy, want the source's backing array", s.name)
		}
	}
	f.Remove(0, simtime.SecondsPerYear, true)
	f.Replace(f.Disk(0), simtime.SecondsPerYear+1)
	if c.NumDisks() != f.NumDisks()-1 || c.Disk(0) == f.Disk(0) {
		t.Error("clone shares the source's delta")
	}
}

// TestCloneMutationIsolation: a clone's delta is its own. Failing a
// clone's disk and installing a replacement leaves the source as
// built, and the source's changes never reach a clone.
func TestCloneMutationIsolation(t *testing.T) {
	f := fleet.BuildDefault(0.002, 11)
	ref := fleet.BuildDefault(0.002, 11)
	c := f.Clone()

	// Mutate the clone the way a trial does: end a residency, install a
	// replacement.
	c.Remove(0, simtime.SecondsPerYear, true)
	c.Replace(c.Disk(0), simtime.SecondsPerYear+500)

	if !reflect.DeepEqual(f, ref) {
		t.Fatal("mutating the clone changed the original fleet")
	}

	// And the other direction: mutating the original's disks leaves the
	// clone's pristine twin untouched.
	c2 := f.Clone()
	f.Remove(1, simtime.SecondsPerYear, true)
	f.Replace(f.Disk(1), simtime.SecondsPerYear)
	if c2.Disk(1).Replaced || c2.NumDisks() != ref.NumDisks() {
		t.Fatal("mutating the original changed the clone")
	}
}

// TestSharedTopologyWhileSimulating clones a fleet over and over while
// another goroutine simulates on it. Clone reads only the topology,
// which simulation never writes, so every clone equals a clone of a
// pristine build, and the race detector finds no conflicting access.
func TestSharedTopologyWhileSimulating(t *testing.T) {
	f := fleet.BuildDefault(0.01, 11)
	want := fleet.BuildDefault(0.01, 11).Clone()
	done := make(chan struct{})
	go func() {
		defer close(done)
		sim.RunOpts(f, failmodel.DefaultParams(), 99, nil)
	}()
	for clones := 0; ; clones++ {
		if c := f.Clone(); !reflect.DeepEqual(c, want) {
			t.Fatalf("clone %d taken during a simulation differs from a pristine clone", clones)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestCloneTrialEquivalence is the contract the sweepd fleet cache
// leans on: a simulation over a clone of a pristine fleet must produce
// exactly the events and disks a simulation over a freshly built fleet
// produces, and the clone must Reset back to its as-built state like
// any other fleet.
func TestCloneTrialEquivalence(t *testing.T) {
	pristine := fleet.BuildDefault(0.002, 11)
	c := pristine.Clone()
	cp := c.Checkpoint()

	fresh := fleet.BuildDefault(0.002, 11)
	params := failmodel.DefaultParams()
	want := sim.Run(fresh, params, 99)
	got := sim.Run(c, params, 99)
	if len(want.Events) != len(got.Events) {
		t.Fatalf("clone trial produced %d events, fresh fleet %d", len(got.Events), len(want.Events))
	}
	if !reflect.DeepEqual(want.Events, got.Events) {
		t.Fatal("clone trial event stream differs from fresh-build trial")
	}
	if !slices.Equal(fleet.AllDisks(c), fleet.AllDisks(fresh)) {
		t.Fatal("clone trial disks differ from fresh-build trial")
	}

	c.Reset(cp)
	if !slices.Equal(fleet.AllDisks(c), fleet.AllDisks(pristine)) {
		t.Fatal("clone did not Reset back to the pristine as-built state")
	}
}

// topologyDigest hashes the four topology slabs' bytes.
func topologyDigest(f *fleet.Fleet) uint64 {
	h := fnv.New64a()
	for _, s := range f.Systems {
		binary.Write(h, binary.LittleEndian, []int64{int64(s.ID), int64(s.Class), int64(s.Paths), int64(s.Install),
			int64(s.Shelves.Lo), int64(s.Shelves.Hi), int64(s.RAIDGroups.Lo), int64(s.RAIDGroups.Hi),
			int64(math.Float64bits(s.ChurnPerDiskYear)), int64(s.DiskModel.Capacity), int64(s.DiskModel.Type)})
		h.Write([]byte(string(s.ShelfModel) + s.DiskModel.Family))
	}
	binary.Write(h, binary.LittleEndian, f.Shelves)
	for i, g := range f.Groups {
		binary.Write(h, binary.LittleEndian, []int64{int64(i), int64(g.System), int64(g.Type),
			int64(g.Members.Lo), int64(g.Members.Hi), int64(g.ShelvesSpanned)})
	}
	binary.Write(h, binary.LittleEndian, f.Members)
	return h.Sum64()
}

// TestSharedFleetConcurrentTrials runs trials of two seeds at once on
// fleets served by one Shared: each must equal the same trial on a
// fresh build, events and disks, and the topology they share must hold
// the same bytes after as before.
func TestSharedFleetConcurrentTrials(t *testing.T) {
	const scale, buildSeed = 0.01, 11
	params := failmodel.DefaultParams()
	var sh fleet.Shared
	build := func() *fleet.Fleet { return fleet.BuildDefault(scale, buildSeed) }
	first, _ := sh.Fleet(build)
	before := topologyDigest(first)

	seeds := []int64{99, 100}
	type trial struct {
		events []failmodel.Event
		disks  []fleet.Disk
	}
	got := make([]trial, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := first
			if i > 0 {
				f, _ = sh.Fleet(build)
			}
			for range 2 { // the second trial runs on the Reset fleet
				cp := f.Checkpoint()
				res := sim.Run(f, params, seed)
				got[i] = trial{slices.Clone(res.Events), fleet.AllDisks(f)}
				f.Reset(cp)
			}
		}()
	}
	wg.Wait()

	for i, seed := range seeds {
		fresh := build()
		want := sim.Run(fresh, params, seed)
		if !reflect.DeepEqual(got[i].events, want.Events) {
			t.Errorf("seed %d: events on the shared topology differ from a fresh build's", seed)
		}
		if !slices.Equal(got[i].disks, fleet.AllDisks(fresh)) {
			t.Errorf("seed %d: disks on the shared topology differ from a fresh build's", seed)
		}
	}
	if topologyDigest(first) != before {
		t.Error("concurrent trials changed the shared topology")
	}
}

// TestQuarterScaleTrialDelta bounds what a trial owns: after a
// quarter-scale trial the fleet's delta — its removals and replacement
// records — is under 2 MB, against the 8 MB a dense disk slab took.
func TestQuarterScaleTrialDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("quarter-scale build and trial")
	}
	f := fleet.BuildDefault(0.25, 1)
	topo := f.ApproxBytes()
	sim.Run(f, failmodel.DefaultParams(), 7)
	if delta := f.ApproxBytes() - topo; delta >= 2<<20 {
		t.Errorf("a quarter-scale trial's delta holds %d bytes, want under 2 MiB", delta)
	}
}

func TestApproxBytesGrowsWithScale(t *testing.T) {
	small := fleet.BuildDefault(0.002, 11).ApproxBytes()
	large := fleet.BuildDefault(0.004, 11).ApproxBytes()
	if small <= 0 || large <= small {
		t.Fatalf("ApproxBytes not monotone in population: %d (0.002) vs %d (0.004)", small, large)
	}
}

// TestApproxBytesMatchesHeap keeps ApproxBytes honest for both halves
// of a fleet: a fresh build's ApproxBytes, its topology, must be within
// 10% of the heap the build leaves live, and a trial's delta — the
// fleet's ApproxBytes less its topology's — within 10% of the heap the
// delta adds.
func TestApproxBytesMatchesHeap(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	check := func(label string, grown, approx float64) {
		t.Helper()
		if rel := math.Abs(approx-grown) / grown; rel > 0.10 {
			t.Errorf("%s: ApproxBytes %.0f vs measured heap growth %.0f: off by %.1f%%, budget 10%%",
				label, approx, grown, 100*rel)
		}
	}
	before := live()
	f := fleet.BuildDefault(0.05, 53)
	built := live()
	check("topology", float64(built)-float64(before), float64(f.ApproxBytes()))

	// A trial's delta, written without the simulator so that nothing
	// else it allocates stays live: every fourth as-built disk fails
	// and is replaced, and every third replacement churns out.
	for id := 0; id < int(f.Shelves[len(f.Shelves)-1].Disks.Hi); id += 4 {
		f.Remove(id, simtime.SecondsPerYear, true)
		r := f.Replace(f.Disk(id), simtime.SecondsPerYear+1)
		if r%3 == 0 {
			f.Remove(r, 2*simtime.SecondsPerYear, false)
		}
	}
	check("delta", float64(live())-float64(built), float64(f.ApproxBytes()-f.Clone().ApproxBytes()))
	runtime.KeepAlive(f)
}
