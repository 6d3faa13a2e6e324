package core

import (
	"math"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// CorrelationResult is the Figure 10 analysis for one (failure type,
// scope): the empirical probabilities of a container experiencing
// exactly one and exactly two failures in a window T, against the
// theoretical P(2) = P(1)^2/2 derived under failure independence
// (the paper's equation 3).
type CorrelationResult struct {
	Type        failmodel.FailureType
	Scope       Scope
	WindowYears float64
	// Containers is the number of containers observed for at least the
	// window (the paper: "Only storage systems that have been in the
	// field for one year or more are considered").
	Containers int
	// CountP1 and CountP2 are the containers with exactly one / exactly
	// two failures of this type in their window.
	CountP1, CountP2 int
	// P1 and P2 are the empirical probabilities.
	P1, P2 float64
	// TheoreticalP2 is P1^2/2 — what independence would predict.
	TheoreticalP2 float64
	// Ratio is P2 / TheoreticalP2; the paper reports x6 for disk
	// failures and x10-25 for the other types.
	Ratio float64
	// P2CI is the Wilson confidence interval for the empirical P2 (the
	// paper's 99.5%+ error bars).
	P2CI stats.Interval
	// Test is the one-sample proportion z-test of the empirical P2
	// count against the theoretical probability.
	Test stats.TTestResult
}

// Dependent reports whether the empirical P(2) is significantly above
// the independence prediction at the given confidence level (e.g.
// 0.995). One-sided: correlation inflates P(2).
func (c CorrelationResult) Dependent(level float64) bool {
	if c.Containers == 0 || math.IsNaN(c.Test.P) {
		return false
	}
	return c.P2 > c.TheoreticalP2 && c.Test.P/2 <= 1-level
}

// CorrelationOptions configure the Figure 10 analysis.
type CorrelationOptions struct {
	// Window is the counting window T; zero defaults to one year.
	Window simtime.Seconds
	// Filter selects events and systems.
	Filter Filter
}

// Correlation computes the Figure 10 comparison for every failure type
// at the given scope.
//
// Method (paper Section 5.2.2): for each container (shelf or RAID
// group) observed for at least T, count the failures of each type in
// the container's first T of service. Empirical P(1) and P(2) are the
// fractions of containers with exactly one and exactly two failures.
// Under independence P(N) = P(1)^N/N! (equation 4), so the theoretical
// P(2) is P(1)^2/2; empirical P(2) above that indicates correlated
// failures.
func (ds *Dataset) Correlation(scope Scope, opts CorrelationOptions) []CorrelationResult {
	window := opts.Window
	if window <= 0 {
		window = simtime.SecondsPerYear
	}
	fl := opts.Filter

	// Container observation starts: the owning system's install time.
	type containerInfo struct {
		start simtime.Seconds
	}
	containers := make(map[int]containerInfo)
	if scope == ByShelf {
		for _, sh := range ds.Fleet.Shelves {
			sys := ds.Fleet.Systems[sh.System]
			if !fl.admitsSystem(sys) {
				continue
			}
			if simtime.StudyDuration-sys.Install >= window {
				containers[sh.ID] = containerInfo{start: sys.Install}
			}
		}
	} else {
		for _, g := range ds.Fleet.Groups {
			sys := ds.Fleet.Systems[g.System]
			if !fl.admitsSystem(sys) {
				continue
			}
			if simtime.StudyDuration-sys.Install >= window {
				containers[g.ID] = containerInfo{start: sys.Install}
			}
		}
	}

	// Count failures per (container, type) within the window.
	counts := make(map[int]*[4]int, len(containers))
	for _, e := range ds.Events {
		if !e.Visible() {
			continue
		}
		id := e.Shelf
		if scope == ByRAIDGroup {
			id = e.Group
			if id < 0 {
				continue
			}
		}
		info, ok := containers[id]
		if !ok {
			continue
		}
		if e.Detected < info.start || e.Detected >= info.start+window {
			continue
		}
		c := counts[id]
		if c == nil {
			c = new([4]int)
			counts[id] = c
		}
		c[int(e.Type)]++
	}

	n := len(containers)
	results := make([]CorrelationResult, 0, len(failmodel.Types))
	for _, t := range failmodel.Types {
		res := CorrelationResult{
			Type:        t,
			Scope:       scope,
			WindowYears: simtime.Years(window),
			Containers:  n,
		}
		for _, c := range counts {
			switch c[int(t)] {
			case 1:
				res.CountP1++
			case 2:
				res.CountP2++
			}
		}
		if n > 0 {
			res.P1 = float64(res.CountP1) / float64(n)
			res.P2 = float64(res.CountP2) / float64(n)
		}
		res.TheoreticalP2 = res.P1 * res.P1 / 2
		if res.TheoreticalP2 > 0 {
			res.Ratio = res.P2 / res.TheoreticalP2
		} else {
			res.Ratio = math.NaN()
		}
		res.P2CI = stats.ProportionCI(res.CountP2, n, 0.995)
		res.Test = proportionVsTheory(res.CountP2, n, res.TheoreticalP2)
		results = append(results, res)
	}
	return results
}

// proportionVsTheory tests an observed count of successes in n trials
// against a theoretical success probability p0 (one-sample z-test,
// two-sided p-value).
func proportionVsTheory(successes, n int, p0 float64) stats.TTestResult {
	res := stats.TTestResult{P: 1}
	if n == 0 {
		return res
	}
	phat := float64(successes) / float64(n)
	res.MeanA, res.MeanB, res.Difference = phat, p0, phat-p0
	if p0 <= 0 || p0 >= 1 {
		if phat != p0 {
			res.P = 0
			res.T = math.Inf(1)
		}
		return res
	}
	se := math.Sqrt(p0 * (1 - p0) / float64(n))
	res.T = (phat - p0) / se
	res.DF = math.Inf(1)
	res.P = 2 * (1 - stats.NormalCDF(math.Abs(res.T)))
	return res
}
