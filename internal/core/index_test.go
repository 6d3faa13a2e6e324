package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// quarterDS is the scale-0.25, seed-42 dataset (simulated with seed
// 43, as experiments.Setup pairs them); one of its shelves has fifteen
// events with tied detection times.
var quarterDS *Dataset

func quarterDataset(t *testing.T) *Dataset {
	t.Helper()
	if quarterDS == nil {
		f := fleet.BuildDefault(0.25, 42)
		res := sim.Run(f, failmodel.DefaultParams(), 43)
		quarterDS = NewDataset(f, res.Events)
	}
	return quarterDS
}

// mapGrouping is the container grouping Gaps and Correlation used
// before the containerRuns index, kept as the test oracle: a map from
// container ID to its visible events in ds.Events order, each sorted
// by detection time with sort.Slice.
func mapGrouping(ds *Dataset, scope Scope) map[int][]failmodel.Event {
	byContainer := make(map[int][]failmodel.Event)
	for _, e := range ds.Events {
		c := int(e.Shelf)
		if scope == ByRAIDGroup {
			c = int(e.Group)
		}
		if !e.Visible() || c < 0 {
			continue
		}
		byContainer[c] = append(byContainer[c], e)
	}
	for _, seq := range byContainer {
		sort.Slice(seq, func(i, j int) bool { return seq[i].Detected < seq[j].Detected })
	}
	return byContainer
}

// mapSequenceGaps is the oracle's duplicate filter and gap extraction.
func mapSequenceGaps(seq []failmodel.Event) []float64 {
	var gaps []float64
	havePrev := false
	var prev failmodel.Event
	for _, e := range seq {
		if havePrev && e.Disk == prev.Disk {
			continue
		}
		if havePrev {
			gap := float64(e.Detected - prev.Detected)
			if gap < 1 {
				gap = 1
			}
			gaps = append(gaps, gap)
		}
		prev = e
		havePrev = true
	}
	return gaps
}

// mapGaps pools the oracle's gaps in sorted container-ID order.
func mapGaps(byContainer map[int][]failmodel.Event) (perType [failmodel.NumTypes][]float64, overall []float64, containers int) {
	ids := make([]int, 0, len(byContainer))
	for c := range byContainer {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	for _, c := range ids {
		seq := byContainer[c]
		if len(seq) >= 2 {
			containers++
		}
		overall = append(overall, mapSequenceGaps(seq)...)
		for _, t := range failmodel.Types {
			var typed []failmodel.Event
			for _, e := range seq {
				if e.Type == t {
					typed = append(typed, e)
				}
			}
			perType[t] = append(perType[t], mapSequenceGaps(typed)...)
		}
	}
	return perType, overall, containers
}

// mapCorrelationCounts is the oracle's Figure 10 count: containers
// observed for a year, and per type how many saw exactly one and
// exactly two failures in their first year.
func mapCorrelationCounts(ds *Dataset, scope Scope, byContainer map[int][]failmodel.Event) (n int, p1, p2 [failmodel.NumTypes]int) {
	window := simtime.SecondsPerYear
	starts := make(map[int]simtime.Seconds)
	if scope == ByShelf {
		for i, sh := range ds.Fleet.Shelves {
			starts[i] = ds.Fleet.Systems[sh.System].Install
		}
	} else {
		for i, g := range ds.Fleet.Groups {
			starts[i] = ds.Fleet.Systems[g.System].Install
		}
	}
	for c, start := range starts {
		if simtime.StudyDuration-start < window {
			continue
		}
		n++
		var counts [failmodel.NumTypes]int
		for _, e := range byContainer[c] {
			if e.Detected >= start && e.Detected < start+window {
				counts[e.Type]++
			}
		}
		for t, k := range counts {
			switch k {
			case 1:
				p1[t]++
			case 2:
				p2[t]++
			}
		}
	}
	return n, p1, p2
}

// TestContainerIndexMatchesMapGrouping requires the containerRuns index
// to reproduce the map grouping it replaced bit for bit, in both scopes
// and through both the public passes and Analyze's shared index: every
// gap sample, the disk fits, and every correlation count.
//
// A simulated dataset is in occurrence order, and detection time is
// monotone in it, so every container's run arrives already sorted and
// any sort leaves it alone. Tie order matters only to the duplicate
// filter, when one disk fails twice at one detection time among other
// disks, and pdqsort differs from a stable sort only on runs of more
// than 12 events. The second dataset pins the sort: the same events
// shuffled, with detection times coarsened to the day, disks merged in
// fours and containers in 64s, so runs are long and full of such ties,
// where only the same unstable pdqsort permutation reproduces the map
// grouping's bytes.
func TestContainerIndexMatchesMapGrouping(t *testing.T) {
	ds := quarterDataset(t)
	evs, runs := ds.containerRuns(ByShelf, Filter{})
	tied := false
	for c := 0; c+1 < len(runs) && !tied; c++ {
		seq := evs[runs[c]:runs[c+1]]
		for i := 1; i < len(seq) && len(seq) > 12; i++ {
			tied = tied || seq[i].Detected == seq[i-1].Detected
		}
	}
	if !tied {
		t.Fatal("no shelf of more than 12 events has tied detection times")
	}
	t.Run("simulated", func(t *testing.T) { checkMapGrouping(t, ds) })

	shuffled := slices.Clone(ds.Events)
	r := stats.NewRNG(1)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	for i := range shuffled {
		e := &shuffled[i]
		e.Detected -= e.Detected % (24 * simtime.SecondsPerHour)
		e.Disk -= e.Disk % 4
		e.Shelf -= e.Shelf % 64
		if e.Group >= 0 {
			e.Group -= e.Group % 64
		}
	}
	// A literal, not NewDataset, which would restore occurrence order.
	t.Run("shuffled-ties", func(t *testing.T) { checkMapGrouping(t, &Dataset{Fleet: ds.Fleet, Events: shuffled}) })
}

func checkMapGrouping(t *testing.T, ds *Dataset) {
	a := ds.Analyze()
	for _, scope := range []Scope{ByShelf, ByRAIDGroup} {
		byContainer := mapGrouping(ds, scope)
		perType, overall, containers := mapGaps(byContainer)
		analyzed := a.ShelfGaps
		if scope == ByRAIDGroup {
			analyzed = a.RAIDGroupGaps
		}
		for _, g := range []*GapAnalysis{ds.Gaps(scope, Filter{}), analyzed} {
			if g.Containers != containers {
				t.Errorf("%s: %d containers, map grouping %d", scope, g.Containers, containers)
			}
			if !slices.Equal(g.Overall.Values(), stats.NewECDF(overall).Values()) {
				t.Errorf("%s: overall gaps differ from the map grouping", scope)
			}
			for _, ft := range failmodel.Types {
				if !slices.Equal(g.PerType[ft].Values(), stats.NewECDF(perType[ft]).Values()) {
					t.Errorf("%s: %s gaps differ from the map grouping", scope, ft.Short())
				}
			}
			want, err := stats.FitAll(perType[failmodel.DiskFailure])
			if err != nil {
				t.Fatalf("%s: map grouping's disk fits: %v", scope, err)
			}
			// %v prints each float at round-trip precision.
			if got := g.DiskFits(); fmt.Sprintf("%v", got) != fmt.Sprintf("%v", want) {
				t.Errorf("%s: disk fits %v, map grouping %v", scope, got, want)
			}
		}

		n, p1, p2 := mapCorrelationCounts(ds, scope, byContainer)
		shared := a.ShelfCorrelation
		if scope == ByRAIDGroup {
			shared = a.RAIDGroupCorrelation
		}
		for _, results := range [][]CorrelationResult{ds.Correlation(scope, CorrelationOptions{}), shared} {
			for _, r := range results {
				if r.Containers != n || r.CountP1 != p1[r.Type] || r.CountP2 != p2[r.Type] {
					t.Errorf("%s/%s: %d containers, P1 %d, P2 %d; map grouping %d, %d, %d",
						scope, r.Type.Short(), r.Containers, r.CountP1, r.CountP2, n, p1[r.Type], p2[r.Type])
				}
			}
		}
	}
}

// TestAnalyzeAllocCeiling bounds one Analyze call at scale 0.25: the
// containerRuns index, failure-type arrays and fits on demand leave a
// few hundred allocations where the map grouping made about 202,000.
func TestAnalyzeAllocCeiling(t *testing.T) {
	const maxAllocs = 1000
	ds := quarterDataset(t)
	if allocs := testing.AllocsPerRun(3, func() { ds.Analyze() }); allocs > maxAllocs {
		t.Fatalf("Analyze made %.0f allocations per call, ceiling %d", allocs, maxAllocs)
	}
}
