// Clone deep-copy tests: equality with the original, mutation
// isolation in both directions, and trial equivalence — a simulation
// run against a clone must be bit-identical to one against a freshly
// built fleet. External test package so it can drive internal/sim.
package fleet_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"

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

func TestCloneMutationIsolation(t *testing.T) {
	f := fleet.BuildDefault(0.002, 11)
	ref := fleet.BuildDefault(0.002, 11)
	c := f.Clone()

	// Mutate the clone the way a trial does: end a residency, install a
	// replacement (which also appends to the shelf mount list), and
	// touch per-system/group ID slices.
	d := &c.Disks[0]
	d.Remove = simtime.SecondsPerYear
	d.Replaced = true
	c.Replace(0, simtime.SecondsPerYear+500)
	c.Shelves[0].Disks = append(c.Shelves[0].Disks, -999)
	c.Systems[0].Shelves = append(c.Systems[0].Shelves, -999)
	c.Groups[0].Disks = append(c.Groups[0].Disks, -999)

	if !reflect.DeepEqual(f, ref) {
		t.Fatal("mutating the clone changed the original fleet")
	}

	// And the other direction: mutating the original leaves the clone's
	// pristine twin untouched.
	c2 := f.Clone()
	f.Disks[1].Replaced = true
	f.Shelves[1].Disks = append(f.Shelves[1].Disks, -1)
	if c2.Disks[1].Replaced || c2.Shelves[1].Disks[len(c2.Shelves[1].Disks)-1] == -1 {
		t.Fatal("mutating the original changed the clone")
	}
}

// TestCloneTrialEquivalence is the contract the sweepd fleet cache
// leans on: a simulation over a clone of a pristine fleet must produce
// exactly the events a simulation over a freshly built fleet produces,
// and the clone must Reset back to its as-built state like any other
// fleet.
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

	c.Reset(cp)
	if !reflect.DeepEqual(c, pristine) {
		t.Fatal("clone did not Reset back to the pristine as-built state")
	}
}

func TestApproxBytesGrowsWithScale(t *testing.T) {
	small := fleet.BuildDefault(0.002, 11).ApproxBytes()
	large := fleet.BuildDefault(0.004, 11).ApproxBytes()
	if small <= 0 || large <= small {
		t.Fatalf("ApproxBytes not monotone in population: %d (0.002) vs %d (0.004)", small, large)
	}
}

// TestApproxBytesMatchesHeap keeps the fleet cache's byte budget honest:
// ApproxBytes of a freshly built fleet must be within 10% of the heap
// the build actually leaves live, and so must ApproxBytes of a Clone of
// it — the cache charges the pristine fleet's ApproxBytes but hands out
// clones.
func TestApproxBytesMatchesHeap(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	check := func(label string, grown float64, f *fleet.Fleet) {
		t.Helper()
		approx := float64(f.ApproxBytes())
		if rel := math.Abs(approx-grown) / grown; rel > 0.10 {
			t.Errorf("%s: ApproxBytes %.0f vs measured heap growth %.0f: off by %.1f%%, budget 10%%",
				label, approx, grown, 100*rel)
		}
	}
	before := live()
	f := fleet.BuildDefault(0.05, 53)
	built := live()
	check("build", float64(built)-float64(before), f)
	c := f.Clone()
	check("clone", float64(live())-float64(built), c)
	runtime.KeepAlive(f)
	runtime.KeepAlive(c)
}
