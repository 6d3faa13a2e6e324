// Clone tests: equality with the original, a shared read-only
// topology, disk-slab isolation in both directions, cloning while the
// source is simulated on, and trial equivalence — a simulation run
// against a clone must be bit-identical to one against a freshly built
// fleet. External test package so it can drive internal/sim.
package fleet_test

import (
	"math"
	"reflect"
	"runtime"
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

// TestCloneSharesTopology holds Clone to the sharing contract: the
// clone's four topology slabs are the source's backing arrays, not
// copies, and only its disk slab is its own.
func TestCloneSharesTopology(t *testing.T) {
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
	if unsafe.SliceData(f.Disks) == unsafe.SliceData(c.Disks) {
		t.Error("clone shares the source's disk slab")
	}
	if topo := fleet.Topology(f); topo.Disks != nil || !reflect.DeepEqual(topo.Clone(), c) {
		t.Error("a topology holds disks or cuts a clone unlike the fleet's own")
	}
}

// TestCloneMutationIsolation: a clone's disk slab is its own. Failing a
// clone's disk and installing a replacement leaves the source as
// built, and the source's disk writes never reach a clone.
func TestCloneMutationIsolation(t *testing.T) {
	f := fleet.BuildDefault(0.002, 11)
	ref := fleet.BuildDefault(0.002, 11)
	c := f.Clone()

	// Mutate the clone the way a trial does: end a residency, install a
	// replacement.
	d := &c.Disks[0]
	d.Remove = int32(simtime.SecondsPerYear)
	d.Replaced = true
	c.Replace(0, simtime.SecondsPerYear+500)

	if !reflect.DeepEqual(f, ref) {
		t.Fatal("mutating the clone changed the original fleet")
	}

	// And the other direction: mutating the original's disks leaves the
	// clone's pristine twin untouched.
	c2 := f.Clone()
	f.Disks[1].Replaced = true
	f.Replace(1, simtime.SecondsPerYear)
	if c2.Disks[1].Replaced || len(c2.Disks) != len(ref.Disks) {
		t.Fatal("mutating the original changed the clone")
	}
}

// TestCloneWhileSimulating clones a fleet over and over while another
// goroutine simulates on it. Clone reads only the topology, which
// simulation never writes, so every clone equals a clone of a pristine
// build, and the race detector finds no conflicting access.
func TestCloneWhileSimulating(t *testing.T) {
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
// the build actually leaves live. A Clone shares the topology, so the
// heap it adds must be within 10% of its disk slab's bytes: the
// clone's ApproxBytes less its topology's.
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
	check("build", float64(built)-float64(before), float64(f.ApproxBytes()))
	c := f.Clone()
	check("clone", float64(live())-float64(built), float64(c.ApproxBytes()-fleet.Topology(c).ApproxBytes()))
	runtime.KeepAlive(f)
	runtime.KeepAlive(c)
}
