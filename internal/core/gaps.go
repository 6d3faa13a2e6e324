package core

import (
	"math"
	"sort"

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
	// PerType maps each failure type to the pooled gap sample (seconds
	// between consecutive detections within a container).
	PerType map[failmodel.FailureType]*stats.ECDF
	// Overall pools gaps between storage subsystem failures of any type.
	Overall *stats.ECDF
	// DiskFits are the candidate-distribution fits to the disk failure
	// gaps, best first (the paper: Gamma fits best; Exponential, Gamma,
	// Weibull are the candidates).
	DiskFits []stats.FitResult
	// Containers is the number of containers contributing >= 2 failures.
	Containers int
}

// FractionWithin returns the fraction of gaps of failure type t below
// the threshold (in seconds). NaN if there are no gaps.
func (g *GapAnalysis) FractionWithin(t failmodel.FailureType, threshold float64) float64 {
	e := g.PerType[t]
	if e == nil || e.Len() == 0 {
		return math.NaN()
	}
	return e.Eval(threshold)
}

// OverallFractionWithin returns the fraction of overall gaps below the
// threshold.
func (g *GapAnalysis) OverallFractionWithin(threshold float64) float64 {
	if g.Overall == nil || g.Overall.Len() == 0 {
		return math.NaN()
	}
	return g.Overall.Eval(threshold)
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
	g := &GapAnalysis{
		Scope:   scope,
		PerType: make(map[failmodel.FailureType]*stats.ECDF),
	}

	container := func(e failmodel.Event) int {
		if scope == ByRAIDGroup {
			return e.Group
		}
		return e.Shelf
	}

	events := ds.selectEvents(fl)
	byContainer := make(map[int][]failmodel.Event)
	for _, e := range events {
		c := container(e)
		if c < 0 {
			continue // spare disks belong to no RAID group
		}
		byContainer[c] = append(byContainer[c], e)
	}

	// Pool gaps in container-ID order, not map order: the pooled sample
	// feeds floating-point MLE fits, so iteration order must be pinned
	// for whole-run output to be byte-identical across invocations.
	containerIDs := make([]int, 0, len(byContainer))
	for c := range byContainer {
		containerIDs = append(containerIDs, c)
	}
	sort.Ints(containerIDs)

	perType := make(map[failmodel.FailureType][]float64)
	var overall []float64
	for _, c := range containerIDs {
		seq := byContainer[c]
		sort.Slice(seq, func(i, j int) bool { return seq[i].Detected < seq[j].Detected })
		if len(seq) >= 2 {
			g.Containers++
		}
		overall = append(overall, sequenceGaps(seq)...)
		for _, t := range failmodel.Types {
			var typed []failmodel.Event
			for _, e := range seq {
				if e.Type == t {
					typed = append(typed, e)
				}
			}
			perType[t] = append(perType[t], sequenceGaps(typed)...)
		}
	}

	g.Overall = stats.NewECDF(overall)
	for _, t := range failmodel.Types {
		g.PerType[t] = stats.NewECDF(perType[t])
	}

	if disk := perType[failmodel.DiskFailure]; len(disk) >= 8 {
		if fits, err := stats.FitAll(disk); err == nil {
			g.DiskFits = fits
		}
	}
	return g
}

// sequenceGaps applies the duplicate filter to a detection-time-sorted
// sequence and returns the gaps between consecutive retained events, in
// seconds, floored at one second.
func sequenceGaps(seq []failmodel.Event) []float64 {
	var gaps []float64
	havePrev := false
	var prev failmodel.Event
	for _, e := range seq {
		if havePrev && e.Disk == prev.Disk {
			continue // duplicate: same disk failing again
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

// BestFitName returns the name of the best-fitting candidate
// distribution for disk failure gaps, or "" if no fit was possible.
func (g *GapAnalysis) BestFitName() string {
	if len(g.DiskFits) == 0 {
		return ""
	}
	return g.DiskFits[0].Dist.Name()
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
	disk := g.PerType[ft]
	if disk == nil || disk.Len() < 50 {
		return stats.GOFResult{P: math.NaN()}
	}
	values := disk.Values()
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
