package sim

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// firstDraw returns a generator whose first Float64 is u, which must
// be a Float64 value: a multiple of 2^-53 in [0, 1). Its later draws
// are arbitrary but fixed.
func firstDraw(t testing.TB, u float64) *stats.RNG {
	x := u * (1 << 53)
	if x != math.Trunc(x) || x < 0 || x >= 1<<53 {
		t.Fatalf("%v is not a Float64 value", u)
	}
	// With s0 = 0 the first output rotl(s0+s3, 23)+s0 is rotl(s3, 23).
	out := uint64(x) << 11
	return stats.RestoreRNG(stats.RNGState{S1: 1, S2: 2, S3: bits.RotateLeft64(out, -23)})
}

// gridBelow returns the largest Float64 value below thr.
func gridBelow(thr float64) float64 {
	x := math.Ceil(thr*(1<<53)) - 1
	return x / (1 << 53)
}

// firstArrivalCases returns every (rate, install) pair whose
// first-arrival threshold the simulator uses under the default and
// ops-grid fleets and parameters: each system's baseline disk rate
// (default AFRs, and doubled) and churn rate (default, and four times),
// at its install time in the default, young and old fleets.
func firstArrivalCases() (rates []float64, installs []simtime.Seconds) {
	params := []*failmodel.Params{failmodel.DefaultParams(), failmodel.DefaultParams()}
	params[1].ScaleDiskAFR(2)
	for _, skew := range []float64{0, 0.5, -0.5} {
		profiles := fleet.DefaultProfiles()
		for i := range profiles {
			if skew != 0 {
				profiles[i].SkewInstallWindow(skew)
			}
		}
		f := fleet.Build(profiles, 0.01, 9)
		for _, sys := range f.Systems {
			for _, p := range params {
				rates = append(rates, p.DiskBaseRate(sys.DiskModel))
				installs = append(installs, sys.Install)
			}
			for _, mult := range []float64{1, 4} {
				rates = append(rates, sys.ChurnPerDiskYear*mult)
				installs = append(installs, sys.Install)
			}
		}
	}
	return rates, installs
}

// TestFirstArrivalThresholdExact steps the first uniform across every
// threshold the default and ops-grid parameters produce, one Float64
// value at a time with math.Nextafter, and requires that wherever the
// shortcut reports no arrival, poissonTimes draws none either. It also
// checks that the threshold sits below the exact boundary by about δ
// and no further: just above thr·(1+2^-22), poissonTimes still draws
// nothing.
func TestFirstArrivalThresholdExact(t *testing.T) {
	rates, installs := firstArrivalCases()
	if len(rates) < 100 {
		t.Fatalf("only %d cases", len(rates))
	}
	end := simtime.StudyDuration
	var buf []simtime.Seconds
	for i, rate := range rates {
		from := installs[i]
		thr := noArrivalBelow(rate, from)
		if !(thr > 0 && thr < 1) {
			t.Fatalf("rate %g from %d: threshold %v outside (0, 1)", rate, from, thr)
		}
		u := gridBelow(thr)
		for range 8 { // step up across the threshold
			u = math.Nextafter(u, 1)
		}
		for range 24 { // and down below it again
			if x := u * (1 << 53); x != math.Trunc(x) {
				u = math.Nextafter(u, 0)
				continue // not a Float64 value (ulp finer than 2^-53 below 1/2)
			}
			buf = poissonTimes(buf[:0], rate, from, end, firstDraw(t, u))
			if u < thr && len(buf) > 0 {
				t.Fatalf("rate %g from %d: u = %v < threshold %v, but poissonTimes drew %v", rate, from, u, thr, buf)
			}
			u = math.Nextafter(u, 0)
		}
		u = gridBelow(thr * (1 + 1.0/(1<<22)))
		if buf = poissonTimes(buf[:0], rate, from, end, firstDraw(t, u)); len(buf) > 0 {
			t.Fatalf("rate %g from %d: u = %v just above threshold %v drew %v; the margin is wider than δ", rate, from, u, thr, buf)
		}
	}
}

// FuzzFirstArrival checks the first-arrival shortcut against the full
// draw: arrivals must return exactly poissonTimes' points for any
// stream key, rate and install time, and a first uniform just below
// the threshold must draw no point.
func FuzzFirstArrival(f *testing.F) {
	f.Add(uint64(1), 0.0205, int64(0))
	f.Add(uint64(42), 0.072, int64(simtime.StudyDuration/2))
	f.Add(uint64(7), 0.288, int64(1))
	f.Add(uint64(9), 0.0, int64(0))
	f.Add(uint64(3), 40.0, int64(simtime.StudyDuration-1))
	f.Add(uint64(5), -1.0, int64(100))
	end := simtime.StudyDuration
	f.Fuzz(func(t *testing.T, key uint64, rate float64, from int64) {
		if math.IsNaN(rate) || math.Abs(rate) > 1e4 || rate != 0 && math.Abs(rate) < 1e-12 {
			t.Skip("rate outside the model's range") // poissonTimes panics once rate/SecondsPerYear underflows
		}
		from %= end
		if from < 0 {
			from += end
		}
		thr := noArrivalBelow(rate, from)
		k := stats.Key(key)
		r := k.RNG()
		want := poissonTimes(nil, rate, from, end, &r)
		if got := arrivals(nil, rate, thr, from, k); !slices.Equal(got, want) {
			t.Fatalf("arrivals = %v, poissonTimes = %v (rate %g, from %d, threshold %v)", got, want, rate, from, thr)
		}
		if thr <= 0 || thr >= 1 || rate <= 0 {
			return
		}
		u := gridBelow(thr) - float64(key%1024)/(1<<53)
		if u <= 0 {
			return
		}
		if got := poissonTimes(nil, rate, from, end, firstDraw(t, u)); len(got) > 0 {
			t.Fatalf("u = %v below threshold %v drew %v (rate %g, from %d)", u, thr, got, rate, from)
		}
	})
}
