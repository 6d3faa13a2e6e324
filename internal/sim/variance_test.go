package sim

import (
	"math"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// TestBasePoissonTimesPlainDelegation: the zero Strata reproduces the
// plain poissonTimes draw bit for bit from the same stream state — the
// gate that keeps every calibrated golden unchanged when no variance
// mode is set.
func TestBasePoissonTimesPlainDelegation(t *testing.T) {
	w := &worker{} // strata.Count == 0
	for seed := int64(1); seed <= 5; seed++ {
		r1 := stats.NewRNG(seed)
		r2 := stats.NewRNG(seed)
		a := w.basePoissonTimes(nil, 1.5, 0, 3*simtime.SecondsPerYear, r1, 7)
		b := poissonTimes(nil, 1.5, 0, 3*simtime.SecondsPerYear, r2)
		if len(a) != len(b) {
			t.Fatalf("seed %d: %d vs %d draws", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d draw %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("seed %d: stream positions diverged after the draw", seed)
		}
	}
}

// TestStratumPermutationCoverage: across the sweep's T trials, each
// disk's stratum assignment must visit every stratum of [0, T) exactly
// once (the Latin-hypercube property), the assignment must depend only
// on (Strata.Seed, disk ID) — never the trial — and distinct disks
// must not all share one permutation.
func TestStratumPermutationCoverage(t *testing.T) {
	const horizon = 10 * simtime.SecondsPerYear
	for _, n := range []int{1, 2, 3, 8, 12, 24} {
		distinct := false
		var firstPerm []int
		for disk := 0; disk < 6; disk++ {
			perm := make([]int, n)
			seen := make([]bool, n)
			for trial := 0; trial < n; trial++ {
				w := &worker{
					strata:   Strata{Index: trial, Count: n, Seed: 99},
					permRoot: *stats.NewRNG(99),
				}
				// Probe the stratum through the count: at a huge mean the
				// inverse CDF separates the strata by hundreds of counts, so
				// the drawn count identifies the slot unambiguously whatever
				// in-stratum uniform the stream supplies.
				r := stats.NewRNG(int64(1000*trial) + int64(disk))
				times := w.basePoissonTimes(nil, 5000, 0, horizon, r, disk)
				// mean = 50000; stratum s confines u to [s/n, (s+1)/n), and
				// the inverse CDF is monotone, so counts sort by stratum.
				slot := slotFromCount(len(times), 50000, n)
				if slot < 0 || slot >= n {
					t.Fatalf("n=%d disk=%d trial=%d: count %d maps outside strata", n, disk, trial, len(times))
				}
				if seen[slot] {
					t.Fatalf("n=%d disk=%d: stratum %d drawn twice", n, disk, slot)
				}
				seen[slot] = true
				perm[trial] = slot
			}
			if disk == 0 {
				firstPerm = perm
			} else if !equalInts(perm, firstPerm) {
				distinct = true
			}
		}
		if n >= 8 && !distinct {
			t.Errorf("n=%d: all disks share one stratum permutation; per-disk keying is broken", n)
		}
	}
}

// slotFromCount inverts the stratified count back to its stratum: the
// count k falls in stratum s iff CDF boundaries bracket it, i.e. s is
// the largest stratum whose lower-edge count is <= k.
func slotFromCount(k int, mean float64, n int) int {
	for s := n - 1; s >= 0; s-- {
		lo := stats.PoissonInvCDF(mean, float64(s)/float64(n))
		if k >= lo {
			return s
		}
	}
	return -1
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStratifiedDrawLaw: stratified draws preserve the per-trial law —
// arrival times stay inside the window and sorted, the count matches
// the inverse CDF of the stratified uniform's stratum, and pooling all
// strata reproduces the Poisson mean (unbiasedness across one full
// stratum rotation).
func TestStratifiedDrawLaw(t *testing.T) {
	const (
		rate    = 2.0
		years   = 4
		n       = 16
		rounds  = 40
		horizon = years * simtime.SecondsPerYear
	)
	var pooled stats.Online
	for round := 0; round < rounds; round++ {
		for trial := 0; trial < n; trial++ {
			w := &worker{
				strata:   Strata{Index: trial, Count: n, Seed: 7},
				permRoot: *stats.NewRNG(7),
			}
			r := stats.NewRNG(int64(round*n+trial) + 1)
			times := w.basePoissonTimes(nil, rate, 0, horizon, r, round)
			for i, ts := range times {
				if ts < 0 || ts >= horizon {
					t.Fatalf("arrival %v outside [0, %v)", ts, horizon)
				}
				if i > 0 && times[i-1] > ts {
					t.Fatal("arrivals not sorted")
				}
			}
			pooled.Push(float64(len(times)))
		}
	}
	want := rate * years
	if got := pooled.Mean(); math.Abs(got-want) > 0.15 {
		t.Errorf("pooled stratified mean %v, want ~%v (law not preserved)", got, want)
	}
}

// TestAntitheticOptsMirrorsRun: RunOpts with Antithetic set must
// produce a different (mirrored) history than the plain run while
// remaining deterministic, and the zero Opts must match Run exactly.
// This exercises the root-flip plumbing end to end.
func TestAntitheticOptsMirrorsRun(t *testing.T) {
	params := failmodel.DefaultParams()
	build := func() *fleet.Fleet { return fleet.BuildDefault(0.01, 3) }

	sameEvents := func(a, b *Result) bool {
		if len(a.Events) != len(b.Events) {
			return false
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				return false
			}
		}
		return true
	}

	plain := RunOpts(build(), params, 42, nil, Opts{})
	zero := Run(build(), params, 42)
	if !sameEvents(plain, zero) {
		t.Fatal("zero Opts diverged from Run; the gate leaks")
	}
	if len(plain.Events) == 0 {
		t.Fatal("plain run produced no events")
	}

	anti := RunOpts(build(), params, 42, nil, Opts{Antithetic: true})
	anti2 := RunOpts(build(), params, 42, nil, Opts{Antithetic: true})
	if !sameEvents(anti, anti2) {
		t.Fatal("antithetic run is not deterministic")
	}
	if sameEvents(anti, plain) {
		t.Fatal("antithetic run identical to plain run; the mirror is not reaching the simulation")
	}
}
