package stats

// This file provides the paired-sample aggregation substrate for the
// sweep engine's common-random-numbers (CRN) delta estimates. When two
// scenarios consume identical trial streams (internal/sweep's
// trialSeed contract), the per-trial difference x_t - y_t cancels the
// shared Monte-Carlo noise, so its confidence interval is far tighter
// than the difference of two independent intervals. PairedOnline is
// the streaming estimator for that contrast.

import "math"

// PairedOnline is a streaming accumulator over paired observations
// (x_t, y_t). It maintains Welford statistics of the per-pair
// difference d_t = x_t - y_t — bit-for-bit identical to feeding the
// precomputed differences into an Online — plus the bivariate
// co-moments needed to report the sample correlation between the two
// legs (the diagnostic for how much variance the CRN pairing
// cancelled). O(1) memory; the zero value is an empty accumulator.
//
// Determinism contract: like Online, PairedOnline is a pure function
// of its Push sequence, so a collector that pushes pairs in trial
// order gets bit-identical summaries for any worker count.
type PairedOnline struct {
	delta         Online  // Welford over d = x - y
	mx, my        float64 // leg means
	m2x, m2y, cxy float64 // leg sum-of-squares and cross co-moment
}

// Push absorbs one pair.
func (p *PairedOnline) Push(x, y float64) {
	p.delta.Push(x - y)
	n := float64(p.delta.N())
	dx := x - p.mx
	p.mx += dx / n
	dy := y - p.my
	p.my += dy / n
	p.m2x += dx * (x - p.mx)
	p.m2y += dy * (y - p.my)
	p.cxy += dx * (y - p.my)
}

// N returns the number of pairs pushed.
func (p *PairedOnline) N() int { return p.delta.N() }

// Mean returns the mean per-pair difference (NaN when empty).
func (p *PairedOnline) Mean() float64 { return p.delta.Mean() }

// StdDev returns the sample standard deviation of the differences.
func (p *PairedOnline) StdDev() float64 { return p.delta.StdDev() }

// MeanCI returns the Student-t confidence interval for the mean
// difference at the given level — the paired-delta CI the sweep
// reports per contrast.
func (p *PairedOnline) MeanCI(level float64) Interval { return p.delta.MeanCI(level) }

// Corr returns the sample Pearson correlation between the two legs —
// near +1 when common random numbers couple the scenarios tightly
// (most noise cancelled), near 0 when the pairing bought nothing. NaN
// when fewer than two pairs or either leg is constant.
func (p *PairedOnline) Corr() float64 {
	if p.delta.N() < 2 || p.m2x <= 0 || p.m2y <= 0 {
		return math.NaN()
	}
	return p.cxy / math.Sqrt(p.m2x*p.m2y)
}

// PairedOnlineState is the serializable state of a PairedOnline, with
// floats as IEEE-754 bit patterns (see serialize.go).
type PairedOnlineState struct {
	Delta OnlineState `json:"delta"`
	Mx    uint64      `json:"mx"`
	My    uint64      `json:"my"`
	M2x   uint64      `json:"m2x"`
	M2y   uint64      `json:"m2y"`
	Cxy   uint64      `json:"cxy"`
}

// State captures the accumulator.
func (p *PairedOnline) State() PairedOnlineState {
	return PairedOnlineState{
		Delta: p.delta.State(),
		Mx:    math.Float64bits(p.mx),
		My:    math.Float64bits(p.my),
		M2x:   math.Float64bits(p.m2x),
		M2y:   math.Float64bits(p.m2y),
		Cxy:   math.Float64bits(p.cxy),
	}
}

// RestorePairedOnline reconstructs an accumulator from a captured
// state; subsequent Push calls continue bit-identically to an
// accumulator that was never serialized.
func RestorePairedOnline(st PairedOnlineState) PairedOnline {
	return PairedOnline{
		delta: RestoreOnline(st.Delta),
		mx:    math.Float64frombits(st.Mx),
		my:    math.Float64frombits(st.My),
		m2x:   math.Float64frombits(st.M2x),
		m2y:   math.Float64frombits(st.M2y),
		cxy:   math.Float64frombits(st.Cxy),
	}
}
