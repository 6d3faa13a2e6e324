// Package multipath models the active/passive network redundancy
// mechanism the paper studies in Section 4.3: shelves connected to two
// independent FC networks, with I/O redirected through the secondary
// network when the primary fails.
//
// It provides the analytic predictions the paper discusses — the
// expected interconnect AFR reduction given a cause mix, and why the
// observed dual-path failure rate is far above the "idealized
// probability for two networks to both fail" — plus a simulation of
// overlapping outages on two independent paths.
package multipath

import (
	"math"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// PredictedPIReduction returns the expected fractional reduction of
// physical interconnect AFR from adding a second independent path, given
// the root-cause mix: exactly the path-recoverable share, since
// backplane/shelf-power/shared-HBA faults defeat multipathing.
func PredictedPIReduction(mix failmodel.CauseMix) float64 {
	return mix.RecoverableFraction()
}

// IdealizedDualPathAFR is the naive "both independent networks fail"
// estimate the paper quotes ("given that the probability for one network
// to fail is about 2%, the idealized probability for two networks to
// both fail should be a few magnitudes lower (about 0.04%)"): the square
// of the single-network annual failure probability.
func IdealizedDualPathAFR(singleNetworkAFR float64) float64 {
	return singleNetworkAFR * singleNetworkAFR
}

// Outage is one path-affecting fault: the path goes down at Start and is
// repaired after Duration.
type Outage struct {
	Start    simtime.Seconds
	Duration simtime.Seconds
	Path     int // 0 = primary, 1 = secondary
}

// OverlapResult reports how often two independent paths were down
// simultaneously over a simulated horizon.
type OverlapResult struct {
	Outages         int
	Overlaps        int     // outages that began while the other path was down
	OverlapFraction float64 // Overlaps / Outages
	DowntimeYears   float64 // total double-down time in years
}

// SimulateOverlap draws independent outage processes (rate per
// path-year, lognormal repair with the given median seconds) on two
// paths over horizonYears and measures simultaneous-outage exposure.
// It demonstrates the idealized-squared estimate: with realistic repair
// times, overlaps are rare but not "a few magnitudes" rare once repair
// windows are hours long.
func SimulateOverlap(ratePerYear float64, repairMedian simtime.Seconds, horizonYears float64, r *stats.RNG) OverlapResult {
	horizon := simtime.YearsToSeconds(horizonYears)
	var outages []Outage
	for path := 0; path < 2; path++ {
		t := 0.0
		perSecond := ratePerYear / float64(simtime.SecondsPerYear)
		for {
			t += r.Exponential(perSecond)
			if t >= float64(horizon) {
				break
			}
			dur := simtime.Seconds(r.LogNormal(math.Log(float64(repairMedian)), 0.8))
			outages = append(outages, Outage{Start: simtime.Seconds(t), Duration: dur, Path: path})
		}
	}
	var res OverlapResult
	res.Outages = len(outages)
	var doubleDown simtime.Seconds
	for _, a := range outages {
		for _, b := range outages {
			if a.Path == b.Path {
				continue
			}
			// Overlap window of a and b.
			start := maxSeconds(a.Start, b.Start)
			end := minSeconds(a.Start+a.Duration, b.Start+b.Duration)
			if end > start {
				if b.Start <= a.Start && a.Start < b.Start+b.Duration {
					res.Overlaps++
				}
				// Halve to avoid double counting the symmetric pair.
				doubleDown += (end - start) / 2
			}
		}
	}
	if res.Outages > 0 {
		res.OverlapFraction = float64(res.Overlaps) / float64(res.Outages)
	}
	res.DowntimeYears = simtime.Years(doubleDown)
	return res
}

func maxSeconds(a, b simtime.Seconds) simtime.Seconds {
	if a > b {
		return a
	}
	return b
}

func minSeconds(a, b simtime.Seconds) simtime.Seconds {
	if a < b {
		return a
	}
	return b
}
