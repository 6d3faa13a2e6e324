package failmodel

import (
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// Params is the calibrated generative model. Rates are annualized
// (events per disk-year or episodes per shelf/system-year); the
// calibration targets come from the paper's published numbers and are
// documented per field. DefaultParams returns the calibration used by
// the reproduction; tests and ablations construct variants.
type Params struct {
	// DiskAFR is the per-model disk annualized failure rate (fraction
	// of disk-years ending in a disk failure). Calibrated so near-line
	// (SATA) models average ~1.9% and enterprise (FC) models stay below
	// 0.9% (Finding 2 / Figure 4b), with family H elevated (Finding 3)
	// and AFR non-increasing in capacity within a family (Finding 5).
	DiskAFR map[fleet.DiskModel]float64

	// DiskEnvFraction is the share of each disk model's AFR delivered
	// through shelf-level environment episodes rather than the
	// independent per-disk baseline. It controls the (mild) same-shelf
	// disk failure correlation: Figure 10 finds empirical P(2) about 6x
	// the independence prediction for disk failures.
	DiskEnvFraction float64

	// EnvEpisodeRate is the rate of shelf environment episodes
	// (cooling/temperature excursions) per shelf-year.
	EnvEpisodeRate float64

	// EnvSpread is the window over which an environment episode's
	// extra disk failures are spread. Weeks, not minutes: disk failures
	// are correlated but far less bursty than interconnect failures
	// (Finding 8).
	EnvSpread simtime.Seconds

	// PIBaseAFR is the single-path physical interconnect failure rate
	// per disk-year, by class. Calibrated to Figure 4(b) and Figure 7:
	// mid-range single-path 1.82%, high-end single-path 2.13%.
	PIBaseAFR map[fleet.SystemClass]float64

	// PIInterop overrides the PI AFR for specific (class, shelf model,
	// disk model) combinations — the interoperability effect of
	// Figure 6, where shelf model B beats A for disk A-2 but loses for
	// A-3, D-2 and D-3.
	PIInterop map[InteropKey]float64

	// PICauseWeights gives the root-cause mix of interconnect episodes
	// per class. The path-recoverable share (cable + HBA port) is what
	// multipathing can absorb: 0.50 for mid-range and 0.58 for high-end
	// reproduces Figure 7's 50-60% PI reduction.
	PICauseWeights map[fleet.SystemClass]CauseMix

	// PIBurst is the interconnect episode size distribution. Its shape
	// controls the Figure 10 P(2) inflation: a singleton-heavy mix with
	// a multi-event tail reproduces both the paper's x10-25 interconnect
	// inflation and the bursty Figure 9 CDF.
	PIBurst BurstSize

	// PIBurstGapMedian / PIBurstGapSigma parameterize the lognormal
	// gaps between events within an interconnect burst.
	PIBurstGapMedian simtime.Seconds
	PIBurstGapSigma  float64

	// PILoopFraction is the share of interconnect episodes that are
	// loop-level rather than shelf-level: a fault on the FC loop shared
	// by all of a system's shelves, whose victim disks span shelves.
	// This is the paper's Finding 10 mechanism ("multiple shelves may
	// share the same physical interconnect, and a network failure can
	// still affect all disks in the RAID group"), and it is what keeps
	// RAID groups bursty even when they span shelves.
	PILoopFraction float64

	// ProtoAFR is the protocol failure rate per disk-year by class
	// (paper: protocol failures are 5-10% of subsystem failures).
	ProtoAFR map[fleet.SystemClass]float64

	// ProtoFamilyMult multiplies the protocol rate for systems using a
	// disk family; family H systems trigger corner-case protocol bugs
	// (Finding 3 discussion).
	ProtoFamilyMult map[string]float64

	// ProtoBurst and the gap parameters shape protocol episodes
	// (driver rollout hits several disks across the system).
	ProtoBurst          BurstSize
	ProtoBurstGapMedian simtime.Seconds
	ProtoBurstGapSigma  float64

	// PerfAFR is the performance failure rate per disk-year by class.
	// High-end systems see almost none (153 events in Table 1).
	PerfAFR map[fleet.SystemClass]float64

	// PerfFamilyMult multiplies the performance rate per disk family
	// (H-family disks loaded with internal recovery respond slowly).
	PerfFamilyMult map[string]float64

	// PerfBurst and gap parameters shape performance episodes.
	PerfBurst          BurstSize
	PerfBurstGapMedian simtime.Seconds
	PerfBurstGapSigma  float64

	// RepairLag is how long a failed disk's slot stays empty before the
	// replacement disk enters service. With RepairLagSigma zero (the
	// default) every repair takes exactly this long; otherwise it is the
	// median of the lag distribution.
	RepairLag simtime.Seconds

	// RepairLagSigma, when positive, makes the time-to-replace
	// stochastic: each repair draws its lag from a lognormal with median
	// RepairLag and this log-space sigma (floored at one second). The
	// lag is the RAID group's vulnerability window — while the slot is
	// empty a second failure in the group is unprotected — so the sweep
	// uses this dimension (with a RepairLag multiplier) to probe how
	// sensitive the paper's burst and correlation findings are to
	// operator repair discipline. Zero keeps the deterministic default
	// and consumes no randomness, leaving every calibrated stream
	// untouched.
	RepairLagSigma float64
}

// InteropKey identifies a (class, shelf model, disk model) combination
// for PI-rate overrides.
type InteropKey struct {
	Class fleet.SystemClass
	Shelf fleet.ShelfModel
	Disk  fleet.DiskModel
}

// BurstSize is the distribution of events per episode: with probability
// SingletonProb an episode produces exactly one event; otherwise it
// produces 2 + Poisson(ExtraMean) events. The singleton mass sets how
// often a container sees "exactly one" failure (the P(1) of Figure 10),
// while the multi-event tail sets both the P(2) inflation and the
// burstiness of Figure 9 — two observables one mean could not match
// simultaneously.
type BurstSize struct {
	SingletonProb float64
	ExtraMean     float64
}

// Expected returns the mean episode size.
func (b BurstSize) Expected() float64 {
	return b.SingletonProb + (1-b.SingletonProb)*(2+b.ExtraMean)
}

// Sample draws an episode size (>= 1).
func (b BurstSize) Sample(r *stats.RNG) int {
	if r.Bernoulli(b.SingletonProb) {
		return 1
	}
	return 2 + r.Poisson(b.ExtraMean)
}

// CauseMix is a weighted root-cause distribution for interconnect
// episodes.
type CauseMix struct {
	Causes  []Cause
	Weights []float64
}

// RecoverableFraction returns the weight share of path-recoverable
// causes.
func (m CauseMix) RecoverableFraction() float64 {
	total, rec := 0.0, 0.0
	for i, c := range m.Causes {
		total += m.Weights[i]
		if c.PathRecoverable() {
			rec += m.Weights[i]
		}
	}
	if total == 0 {
		return 0
	}
	return rec / total
}

// DefaultParams returns the calibration targeting the paper's numbers.
// The targets are documented per field above and encoded as typed
// bands with citations in internal/paperref.
func DefaultParams() *Params {
	p := &Params{
		DiskAFR: map[fleet.DiskModel]float64{
			// FC families: all below 0.9% (Figure 4b / Finding 2),
			// larger capacity never worse within a family (Finding 5).
			fleet.DiskA1: 0.0075, fleet.DiskA2: 0.0070, fleet.DiskA3: 0.0072,
			fleet.DiskB1: 0.0085,
			fleet.DiskC1: 0.0080, fleet.DiskC2: 0.0075,
			fleet.DiskD1: 0.0080, fleet.DiskD2: 0.0068, fleet.DiskD3: 0.0072,
			fleet.DiskE1: 0.0078,
			fleet.DiskF1: 0.0082, fleet.DiskF2: 0.0076,
			fleet.DiskG1: 0.0088,
			// Problematic family H (Finding 3): >2x the FC average.
			fleet.DiskH1: 0.0175, fleet.DiskH2: 0.0170,
			// SATA near-line families: ~1.9% average (Finding 2).
			fleet.DiskI1: 0.0180, fleet.DiskI2: 0.0170,
			fleet.DiskJ1: 0.0200, fleet.DiskJ2: 0.0190,
			fleet.DiskK1: 0.0210,
		},
		DiskEnvFraction: 0.55,
		EnvEpisodeRate:  0.06,
		EnvSpread:       90 * simtime.SecondsPerDay,

		PIBaseAFR: map[fleet.SystemClass]float64{
			fleet.NearLine: 0.0092,
			fleet.LowEnd:   0.0250,
			fleet.MidRange: 0.0182,
			fleet.HighEnd:  0.0213,
		},
		PIInterop: map[InteropKey]float64{
			// Figure 6 targets (low-end PI AFR by shelf x disk model):
			// for disk A-2 shelf B wins; for A-3/D-2/D-3 shelf A wins.
			{fleet.LowEnd, fleet.ShelfA, fleet.DiskA2}: 0.0266,
			{fleet.LowEnd, fleet.ShelfB, fleet.DiskA2}: 0.0218,
			{fleet.LowEnd, fleet.ShelfA, fleet.DiskA3}: 0.0220,
			{fleet.LowEnd, fleet.ShelfB, fleet.DiskA3}: 0.0262,
			{fleet.LowEnd, fleet.ShelfA, fleet.DiskD2}: 0.0230,
			{fleet.LowEnd, fleet.ShelfB, fleet.DiskD2}: 0.0275,
			{fleet.LowEnd, fleet.ShelfA, fleet.DiskD3}: 0.0228,
			{fleet.LowEnd, fleet.ShelfB, fleet.DiskD3}: 0.0270,
		},
		PICauseWeights: map[fleet.SystemClass]CauseMix{
			fleet.NearLine: {
				Causes:  []Cause{CauseCable, CauseHBAPort, CauseBackplane, CauseShelfPower, CauseSharedHBA},
				Weights: []float64{0.30, 0.20, 0.28, 0.15, 0.07},
			},
			fleet.LowEnd: {
				Causes:  []Cause{CauseCable, CauseHBAPort, CauseBackplane, CauseShelfPower, CauseSharedHBA},
				Weights: []float64{0.30, 0.20, 0.28, 0.15, 0.07},
			},
			// Mid-range: recoverable share 0.50 -> dual-path PI AFR
			// 1.82% -> 0.91% (Figure 7a).
			fleet.MidRange: {
				Causes:  []Cause{CauseCable, CauseHBAPort, CauseBackplane, CauseShelfPower, CauseSharedHBA},
				Weights: []float64{0.30, 0.20, 0.28, 0.15, 0.07},
			},
			// High-end: recoverable share 0.58 -> 2.13% -> 0.90%
			// (Figure 7b).
			fleet.HighEnd: {
				Causes:  []Cause{CauseCable, CauseHBAPort, CauseBackplane, CauseShelfPower, CauseSharedHBA},
				Weights: []float64{0.36, 0.22, 0.24, 0.12, 0.06},
			},
		},
		PIBurst:          BurstSize{SingletonProb: 0.45, ExtraMean: 1.0},
		PIBurstGapMedian: 5400, // 1.5 hours: PI CDF ~0.6 at 10^4 s (Figure 9)
		PIBurstGapSigma:  1.4,
		PILoopFraction:   0.35,

		ProtoAFR: map[fleet.SystemClass]float64{
			fleet.NearLine: 0.0034,
			fleet.LowEnd:   0.0055,
			fleet.MidRange: 0.0022,
			fleet.HighEnd:  0.0030,
		},
		ProtoFamilyMult:     map[string]float64{ProblemFamilyName: 2.5},
		ProtoBurst:          BurstSize{SingletonProb: 0.70, ExtraMean: 0.5},
		ProtoBurstGapMedian: 5400,
		ProtoBurstGapSigma:  1.2,

		PerfAFR: map[fleet.SystemClass]float64{
			fleet.NearLine: 0.0020,
			fleet.LowEnd:   0.0060,
			fleet.MidRange: 0.0016,
			fleet.HighEnd:  0.0003,
		},
		PerfFamilyMult:     map[string]float64{ProblemFamilyName: 2.0},
		PerfBurst:          BurstSize{SingletonProb: 0.80, ExtraMean: 0.3},
		PerfBurstGapMedian: 9000,
		PerfBurstGapSigma:  1.3,

		RepairLag: 2 * simtime.SecondsPerDay,
	}
	return p
}

// ProblemFamilyName mirrors fleet.ProblemFamily for rate multipliers.
const ProblemFamilyName = fleet.ProblemFamily

// DiskBaseRate returns the independent per-disk failure rate for a
// model: its AFR minus the environment-episode share.
func (p *Params) DiskBaseRate(m fleet.DiskModel) float64 {
	return p.diskAFR(m) * (1 - p.DiskEnvFraction)
}

// EnvHitProb returns the probability that one environment episode fails
// a given disk, chosen so that environment episodes contribute exactly
// DiskEnvFraction of the model's AFR:
//
//	EnvEpisodeRate * EnvHitProb = DiskEnvFraction * AFR.
func (p *Params) EnvHitProb(m fleet.DiskModel) float64 {
	if p.EnvEpisodeRate <= 0 {
		return 0
	}
	prob := p.diskAFR(m) * p.DiskEnvFraction / p.EnvEpisodeRate
	if prob > 1 {
		prob = 1
	}
	return prob
}

func (p *Params) diskAFR(m fleet.DiskModel) float64 {
	if afr, ok := p.DiskAFR[m]; ok {
		return afr
	}
	// Unknown model: fall back to the technology average.
	if m.Type == fleet.SATA {
		return 0.019
	}
	return 0.008
}

// PIRate returns the single-path physical interconnect event rate per
// disk-year for a system, honoring interoperability overrides.
func (p *Params) PIRate(class fleet.SystemClass, shelf fleet.ShelfModel, disk fleet.DiskModel) float64 {
	if v, ok := p.PIInterop[InteropKey{class, shelf, disk}]; ok {
		return v
	}
	return p.PIBaseAFR[class]
}

// PIEpisodeRate converts the per-disk-year PI event rate into a
// per-shelf-year episode rate for a shelf holding nDisks disks:
// each episode yields PIBurst.Expected() events in expectation.
func (p *Params) PIEpisodeRate(class fleet.SystemClass, shelf fleet.ShelfModel, disk fleet.DiskModel, nDisks int) float64 {
	if nDisks <= 0 {
		return 0
	}
	return p.PIRate(class, shelf, disk) * float64(nDisks) / p.PIBurst.Expected()
}

// ProtoRate returns the protocol event rate per disk-year for a system.
func (p *Params) ProtoRate(class fleet.SystemClass, disk fleet.DiskModel) float64 {
	rate := p.ProtoAFR[class]
	if mult, ok := p.ProtoFamilyMult[disk.Family]; ok {
		rate *= mult
	}
	return rate
}

// PerfRate returns the performance event rate per disk-year for a system.
func (p *Params) PerfRate(class fleet.SystemClass, disk fleet.DiskModel) float64 {
	rate := p.PerfAFR[class]
	if mult, ok := p.PerfFamilyMult[disk.Family]; ok {
		rate *= mult
	}
	return rate
}

// ScaleDiskAFR multiplies every disk model's annualized failure rate
// by mult — the declarative "what if disks were k× less reliable"
// override the sweep engine's scenarios apply (see
// internal/sweep.Scenario). Call it on a fresh DefaultParams, not on
// shared params.
func (p *Params) ScaleDiskAFR(mult float64) {
	for m := range p.DiskAFR {
		p.DiskAFR[m] *= mult
	}
}

// ScalePIRates multiplies every physical interconnect failure rate —
// the per-class base rates and every interoperability override — by
// mult, preserving the relative Figure 6 shelf×disk structure. Call it
// on a fresh DefaultParams, not on shared params.
func (p *Params) ScalePIRates(mult float64) {
	for c := range p.PIBaseAFR {
		p.PIBaseAFR[c] *= mult
	}
	for k := range p.PIInterop {
		p.PIInterop[k] *= mult
	}
}

// ScaleRepairLag multiplies the repair-lag median by mult — the
// declarative "what if failed disks waited k× longer for replacement"
// override the sweep engine's scenarios apply (see
// internal/sweep.Scenario). Call it on a fresh DefaultParams, not on
// shared params.
func (p *Params) ScaleRepairLag(mult float64) {
	p.RepairLag = simtime.Seconds(float64(p.RepairLag) * mult)
	if p.RepairLag < 1 {
		p.RepairLag = 1
	}
}
