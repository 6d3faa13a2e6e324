package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample,
// the object plotted in the paper's Figure 9 ("Empirical CDF" of time
// between failures per shelf and per RAID group).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample. The input slice is copied.
func NewECDF(xs []float64) *ECDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// Eval returns the fraction of the sample <= x.
func (e *ECDF) Eval(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Values returns the sorted sample. The caller must not modify it.
func (e *ECDF) Values() []float64 { return e.sorted }

// Points samples the ECDF at n log-spaced abscissae between the smallest
// and largest observation, returning (x, F(x)) pairs. It is the plotting
// helper for Figure-9-style log-x CDF charts.
func (e *ECDF) Points(n int) (xs, ys []float64) {
	if len(e.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	lo := e.sorted[0]
	hi := e.sorted[len(e.sorted)-1]
	if lo <= 0 {
		lo = math.SmallestNonzeroFloat64
	}
	if hi <= lo {
		return []float64{hi}, []float64{1}
	}
	logLo, logHi := math.Log(lo), math.Log(hi)
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		x := math.Exp(logLo + (logHi-logLo)*float64(i)/float64(n-1))
		if i == n-1 {
			x = hi // avoid float round-off shaving the last sample point
		}
		xs[i] = x
		ys[i] = e.Eval(x)
	}
	return xs, ys
}

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // unbiased (n-1) sample variance
	StdDev   float64
	Min      float64
	Max      float64
	Median   float64
}

// Summarize computes descriptive statistics for the sample.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		s.Mean, s.Variance, s.StdDev = math.NaN(), math.NaN(), math.NaN()
		s.Min, s.Max, s.Median = math.NaN(), math.NaN(), math.NaN()
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Variance)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if s.N%2 == 1 {
		s.Median = sorted[s.N/2]
	} else {
		s.Median = (sorted[s.N/2-1] + sorted[s.N/2]) / 2
	}
	return s
}

// Mean returns the sample mean, NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
