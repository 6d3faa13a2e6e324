package sweep_test

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"storagesubsys/internal/core"
	"storagesubsys/internal/experiments"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

// TestAnalysisProperties checks invariants of a whole core.Analysis on
// real trials: three seeds under every committed scenario's overrides
// (examples/scenarios, mined scenarios mined), each at 1% scale.
//
//   - The class breakdowns partition the visible events of the systems
//     they admit, and every breakdown's failure-type shares sum to 1
//     (all 0 for a breakdown without events).
//   - Per scope (shelf, RAID group), a container whose time-ordered
//     visible events keep k past the duplicate filter (an event on the
//     disk of the previous one kept is dropped) gives k-1 gaps, overall
//     and per failure type. So each gap sample holds the kept events
//     less the containers holding any, and Containers counts those
//     holding two or more. The containers and their sequences come from
//     the trial's events by their Shelf and Group IDs, not from the
//     analysis's container index; each sequence is ordered as the
//     analysis orders it (by detection time, ties in the sort order the
//     goldens pin), since the order of tied events decides the filter.
func TestAnalysisProperties(t *testing.T) {
	for _, name := range scenario.BuiltinNames() {
		spec, err := scenario.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range spec.Scenarios {
			key := s.FleetKeyIn(0.01)
			key.Scale = 0.01
			for seed := int64(1); seed <= 3; seed++ {
				f := sweep.BuildFleet(key, seed)
				env := experiments.RunTrial(experiments.Config{
					Scale: key.Scale, Seed: seed, Mine: s.Mine, Params: sweep.ScenarioParams(s),
				}, f, seed+100, nil)
				a := env.Dataset.Analyze()
				where := name + "/" + s.Name
				checkShares(t, where, seed, f, env.Events, a)
				checkGaps(t, where, seed, len(f.Shelves), env.Dataset.Events, a.ShelfGaps, func(e *failmodel.Event) int32 { return e.Shelf })
				checkGaps(t, where, seed, len(f.Groups), env.Dataset.Events, a.RAIDGroupGaps, func(e *failmodel.Event) int32 { return e.Group })
			}
		}
	}
}

// checkShares checks that the class breakdowns hold every visible event
// of a system outside the problem family once, and that every
// breakdown in a partitions its events over the failure types.
func checkShares(t *testing.T, where string, seed int64, f *fleet.Fleet, events []failmodel.Event, a *core.Analysis) {
	t.Helper()
	want := 0
	for i := range events {
		if e := &events[i]; e.Visible() && f.Systems[e.System].DiskModel.Family != fleet.ProblemFamily {
			want++
		}
	}
	got := 0
	bs := []core.Breakdown{a.FamilyH.H, a.FamilyH.Others}
	for _, b := range a.Classes {
		got += b.TotalEvents()
		bs = append(bs, b)
	}
	if got != want {
		t.Errorf("%s seed %d: class breakdowns hold %d events, want %d", where, seed, got, want)
	}
	for _, c := range a.Shelf {
		bs = append(bs, c.A, c.B)
	}
	for _, c := range a.Multipath {
		bs = append(bs, c.Single, c.Dual)
	}
	for _, b := range bs {
		sum := 0.0
		for _, ft := range failmodel.Types {
			sum += b.Share(ft)
		}
		if want := min(float64(b.TotalEvents()), 1); math.Abs(sum-want) > 1e-12 {
			t.Errorf("%s seed %d: %q shares sum to %v over %d events", where, seed, b.Label, sum, b.TotalEvents())
		}
	}
}

// checkGaps checks g's sample sizes against the visible events of each
// of n containers, found by container.
func checkGaps(t *testing.T, where string, seed int64, n int, events []failmodel.Event, g *core.GapAnalysis, container func(*failmodel.Event) int32) {
	t.Helper()
	seqs := make([][]failmodel.Event, n)
	for i := range events {
		if e := &events[i]; e.Visible() && container(e) >= 0 {
			seqs[container(e)] = append(seqs[container(e)], *e)
		}
	}
	// Index t counts type t's sequence, index NumTypes the overall one.
	var kept, nonEmpty [failmodel.NumTypes + 1]int
	multi := 0
	for _, seq := range seqs {
		slices.SortFunc(seq, func(a, b failmodel.Event) int { return cmp.Compare(a.Detected, b.Detected) })
		var last [failmodel.NumTypes + 1]int32 // each sequence's last kept disk, -1 before its first
		for i := range last {
			last[i] = -1
		}
		for _, e := range seq {
			for _, i := range [2]int{int(e.Type), failmodel.NumTypes} {
				if last[i] < 0 {
					nonEmpty[i]++
				}
				if last[i] != e.Disk {
					kept[i]++
				}
				last[i] = e.Disk
			}
		}
		if len(seq) >= 2 {
			multi++
		}
	}
	var want [failmodel.NumTypes + 1]int
	for i := range want {
		want[i] = kept[i] - nonEmpty[i]
	}
	if got := g.Overall.Len(); got != want[failmodel.NumTypes] {
		t.Errorf("%s seed %d: scope %v holds %d gaps, want %d", where, seed, g.Scope, got, want[failmodel.NumTypes])
	}
	for _, ft := range failmodel.Types {
		if got := g.PerType[ft].Len(); got != want[ft] {
			t.Errorf("%s seed %d: scope %v holds %d %v gaps, want %d", where, seed, g.Scope, got, ft, want[ft])
		}
	}
	if g.Containers != multi {
		t.Errorf("%s seed %d: scope %v counts %d containers with gaps, want %d", where, seed, g.Scope, g.Containers, multi)
	}
}
