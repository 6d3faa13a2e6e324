package sim

import (
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// sameResult fails the test unless the result matches the reference
// run event for event, with identical final disk populations and
// exposure.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Events) != len(want.Events) {
		t.Fatalf("%s: %d events, want %d", label, len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got.Events[i], want.Events[i])
		}
	}
	if len(got.Fleet.Disks) != len(want.Fleet.Disks) {
		t.Fatalf("%s: %d disks, want %d", label, len(got.Fleet.Disks), len(want.Fleet.Disks))
	}
	if gy, wy := got.Fleet.DiskYears(nil), want.Fleet.DiskYears(nil); gy != wy {
		t.Fatalf("%s: disk-years %v, want %v", label, gy, wy)
	}
}

// TestResetRerunEquivalence is the sweep engine's correctness contract:
// simulating a fleet, rolling it back with fleet.Reset, and simulating
// again over a recycled Scratch must be bit-identical to fresh
// build-and-simulate runs — for the same seed (exact replay) and for a
// new seed (an independent trial), serial and sharded alike.
func TestResetRerunEquivalence(t *testing.T) {
	params := failmodel.DefaultParams()
	ref9 := Run(fleet.BuildDefault(0.01, 5), params, 9)
	ref10 := Run(fleet.BuildDefault(0.01, 5), params, 10)

	f := fleet.BuildDefault(0.01, 5)
	cp := f.Checkpoint()
	var sc Scratch

	sameResult(t, "first scratch run", RunWorkersOpts(f, params, 9, 1, &sc, Opts{}), ref9)

	f.Reset(cp)
	sameResult(t, "same-seed rerun after Reset", RunWorkersOpts(f, params, 9, 1, &sc, Opts{}), ref9)

	f.Reset(cp)
	sameResult(t, "new-seed trial after Reset", RunWorkersOpts(f, params, 10, 1, &sc, Opts{}), ref10)

	f.Reset(cp)
	sameResult(t, "sharded rerun after Reset", RunWorkersOpts(f, params, 9, 3, &sc, Opts{}), ref9)
}

// TestRunScratchAllocBudget pins the sweep's steady-state allocation
// contract: with a warm Scratch and a Reset fleet, a whole
// re-simulation allocates a small constant number of times, however
// many replacement disks it commits — the records are recycled and
// their serials are derived, never stored.
func TestRunScratchAllocBudget(t *testing.T) {
	params := failmodel.DefaultParams()
	f := fleet.BuildDefault(0.01, 5)
	initial := len(f.Disks)
	cp := f.Checkpoint()
	var sc Scratch
	RunWorkersOpts(f, params, 9, 1, &sc, Opts{}) // warm every buffer
	replacements := len(f.Disks) - initial

	allocs := testing.AllocsPerRun(5, func() {
		f.Reset(cp)
		RunWorkersOpts(f, params, 9, 1, &sc, Opts{})
	})
	const budget = 24
	if allocs > budget {
		t.Errorf("steady-state trial committing %d replacements allocated %.0f times, budget %d",
			replacements, allocs, budget)
	}
}
