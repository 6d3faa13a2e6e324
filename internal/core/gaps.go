package core

import (
	"math"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/stats"
)

// Scope selects the container whose failure sequence is analyzed: the
// paper studies both perspectives (Section 5: "from a shelf perspective
// and from a RAID group perspective").
type Scope int

// Analysis scopes.
const (
	ByShelf Scope = iota
	ByRAIDGroup
)

func (s Scope) String() string {
	if s == ByRAIDGroup {
		return "RAID group"
	}
	return "shelf"
}

// BurstThreshold is the paper's headline burstiness threshold: the
// fraction of consecutive same-container failures arriving within
// 10,000 seconds of the previous one (~48% per shelf, ~30% per RAID
// group in Figure 9).
const BurstThreshold = 10000.0 // seconds

// GapAnalysis holds the Figure 9 analysis for one scope: empirical
// distributions of time between consecutive failures within the same
// container, per failure type and overall.
type GapAnalysis struct {
	Scope Scope
	// PerType holds each failure type's pooled gap sample (seconds
	// between consecutive detections within a container).
	PerType [failmodel.NumTypes]*stats.ECDF
	// Overall pools gaps between storage subsystem failures of any type.
	Overall *stats.ECDF
	// Containers is the number of containers contributing >= 2 failures.
	Containers int
	// diskGaps is the pooled disk failure gap sample in container-ID
	// order, the order DiskFits sums it in (PerType's is sorted).
	diskGaps []float64
}

// FractionWithin returns the fraction of gaps of failure type t below
// the threshold (in seconds). NaN if there are no gaps.
func (g *GapAnalysis) FractionWithin(t failmodel.FailureType, threshold float64) float64 {
	return g.PerType[t].Eval(threshold)
}

// OverallFractionWithin returns the fraction of overall gaps below the
// threshold.
func (g *GapAnalysis) OverallFractionWithin(threshold float64) float64 {
	return g.Overall.Eval(threshold)
}

// DiskFits fits the candidate distributions to the disk failure gaps,
// best first (the paper: Gamma fits best; Exponential, Gamma, Weibull
// are the candidates); nil with fewer than 8 gaps. Each call fits anew.
func (g *GapAnalysis) DiskFits() []stats.FitResult {
	fits, _ := stats.FitAll(g.diskGaps) // nil on error
	return fits
}

// Gaps computes the Figure 9 analysis. The procedure mirrors the paper:
//
//  1. Storage subsystem failures (visible events) are grouped by
//     container — shelf enclosure or RAID group.
//  2. Within a container, duplicate failures are filtered out: a failure
//     is a duplicate if the previous retained failure in the same
//     sequence hit the same disk, so the analysis studies "the failure
//     distribution from different disks in the same shelf/RAID group".
//  3. Gaps are the differences between consecutive *detection* times —
//     the logs record when failures are detected, which is why the CDFs
//     "do not start from the zero point" (detection lags occurrence by
//     up to the hourly scrub interval).
//
// Per-type sequences use only events of that type; the overall sequence
// uses all types.
func (ds *Dataset) Gaps(scope Scope, fl Filter) *GapAnalysis {
	evs, runs := ds.containerRuns(scope, fl)
	return gapsOf(scope, evs, runs)
}

// gapsOf computes the Figure 9 analysis over a containerRuns index. Gaps
// are pooled in container-ID order: the disk sample feeds floating-point
// MLE fits, so its order is part of the byte-determinism contract.
func gapsOf(scope Scope, evs []failmodel.Event, runs []int32) *GapAnalysis {
	g := &GapAnalysis{Scope: scope}
	var overall []float64
	var perType [failmodel.NumTypes][]float64
	for c := 0; c+1 < len(runs); c++ {
		seq := evs[runs[c]:runs[c+1]]
		if len(seq) < 2 {
			continue // a lone failure has no gap
		}
		g.Containers++
		overall = appendGaps(overall, seq, allTypes)
		for t := range perType {
			perType[t] = appendGaps(perType[t], seq, failmodel.FailureType(t))
		}
	}
	g.Overall = stats.NewECDF(overall)
	for t, gaps := range perType {
		g.PerType[t] = stats.NewECDF(gaps)
	}
	g.diskGaps = perType[failmodel.DiskFailure]
	return g
}

// allTypes is appendGaps' type argument for the overall sequence: it
// lies past every failure type, so no event is filtered out.
const allTypes = failmodel.FailureType(failmodel.NumTypes)

// appendGaps applies the duplicate filter to the type-t events of a
// detection-time-sorted sequence (every event when t is allTypes) and
// appends the gaps between consecutive retained events, in seconds,
// floored at one second.
func appendGaps(dst []float64, seq []failmodel.Event, t failmodel.FailureType) []float64 {
	prev := -1
	for i := range seq {
		e := &seq[i]
		if t != allTypes && e.Type != t {
			continue
		}
		if prev >= 0 {
			if e.Disk == seq[prev].Disk {
				continue // duplicate: same disk failing again
			}
			dst = append(dst, max(float64(e.Detected-seq[prev].Detected), 1))
		}
		prev = i
	}
	return dst
}

// BestFitName returns the name of the best-fitting candidate
// distribution for disk failure gaps, or "" if no fit was possible.
func (g *GapAnalysis) BestFitName() string {
	fits := g.DiskFits()
	if len(fits) == 0 {
		return ""
	}
	return fits[0].Dist.Name()
}

// GammaGOF runs the paper's chi-square goodness-of-fit check of the
// Gamma fit to disk failure gaps at the given sample budget (the paper
// tests at significance level 0.05). Large samples make chi-square
// reject any parametric idealization, so the test subsamples
// deterministically (every k-th gap) to at most maxN observations; pass
// maxN <= 0 for the paper-equivalent default of 200 observations in 10
// equal-probability bins, which matches the statistical power a
// coarse-binned test over a pooled field sample has.
func (g *GapAnalysis) GammaGOF(maxN int) stats.GOFResult {
	return g.GammaGOFType(failmodel.DiskFailure, maxN)
}

// GammaGOFType runs the same chi-square Gamma goodness-of-fit check on
// the gap sample of an arbitrary failure type. The paper's contrast is
// that the test accepts Gamma for disk failures and rejects every
// candidate for the bursty failure types.
func (g *GapAnalysis) GammaGOFType(ft failmodel.FailureType, maxN int) stats.GOFResult {
	if maxN <= 0 {
		maxN = 200
	}
	values := g.PerType[ft].Values()
	if len(values) < 50 {
		return stats.GOFResult{P: math.NaN()}
	}
	sample := values
	if len(values) > maxN {
		stride := len(values) / maxN
		sample = make([]float64, 0, maxN)
		for i := 0; i < len(values) && len(sample) < maxN; i += stride {
			sample = append(sample, values[i])
		}
	}
	fit, err := stats.FitGamma(sample)
	if err != nil {
		return stats.GOFResult{P: math.NaN()}
	}
	bins := 10
	if len(sample) < 100 {
		bins = 6
	}
	return stats.ChiSquareGOF(sample, fit, bins)
}
