package sim

import (
	"slices"
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
	if !slices.Equal(fleetDisks(got.Fleet), fleetDisks(want.Fleet)) {
		t.Fatalf("%s: final disks (%d) differ from the reference's (%d)", label, got.Fleet.NumDisks(), want.Fleet.NumDisks())
	}
}

// TestResetRerunEquivalence is the sweep engine's correctness contract:
// simulating a fleet, rolling it back with fleet.Reset, and simulating
// again over a recycled Scratch must be bit-identical to fresh
// build-and-simulate runs — for the same seed (exact replay) and for a
// new seed (an independent trial).
func TestResetRerunEquivalence(t *testing.T) {
	params := failmodel.DefaultParams()
	ref9 := Run(fleet.BuildDefault(0.01, 5), params, 9)
	ref10 := Run(fleet.BuildDefault(0.01, 5), params, 10)

	f := fleet.BuildDefault(0.01, 5)
	cp := f.Checkpoint()
	var sc Scratch

	sameResult(t, "first scratch run", RunOpts(f, params, 9, &sc), ref9)

	f.Reset(cp)
	sameResult(t, "same-seed rerun after Reset", RunOpts(f, params, 9, &sc), ref9)

	f.Reset(cp)
	sameResult(t, "new-seed trial after Reset", RunOpts(f, params, 10, &sc), ref10)
}

// TestRunMatchesRunWorkers pins the RunWorkersOpts compatibility shim
// to Run: its worker count is ignored, whatever its value.
func TestRunMatchesRunWorkers(t *testing.T) {
	params := failmodel.DefaultParams()
	want := Run(fleet.BuildDefault(0.01, 3), params, 4)
	for _, workers := range []int{1, 4} {
		got := RunWorkersOpts(fleet.BuildDefault(0.01, 3), params, 4, workers, nil, Opts{})
		sameResult(t, "RunWorkersOpts shim", got, want)
	}
}

// TestRunScratchAllocBudget pins the sweep's steady-state allocation
// contract: with a warm Scratch and a Reset fleet, a whole
// re-simulation allocates a small constant number of times, however
// many replacement disks it appends — the fleet's delta keeps its
// capacity across Resets and serials are derived, never stored.
func TestRunScratchAllocBudget(t *testing.T) {
	params := failmodel.DefaultParams()
	f := fleet.BuildDefault(0.01, 5)
	initial := f.NumDisks()
	cp := f.Checkpoint()
	var sc Scratch
	RunOpts(f, params, 9, &sc) // warm every buffer
	replacements := f.NumDisks() - initial

	allocs := testing.AllocsPerRun(5, func() {
		f.Reset(cp)
		RunOpts(f, params, 9, &sc)
	})
	const budget = 24
	if allocs > budget {
		t.Errorf("steady-state trial appending %d replacements allocated %.0f times, budget %d",
			replacements, allocs, budget)
	}
}
