package sweep

import (
	"fmt"
	"math"

	"storagesubsys/internal/stats"
)

// collector is the one owner of a sweep's aggregation state: the
// identity, the watermark, the failure log, per-scenario, per-metric
// Welford moments and quantile reservoirs, trial-0 point vectors (NaN
// until trial 0 is aggregated, so a missing trial 0 reports a null
// point estimate, not a silent zero) and, with Deltas, the CRN
// paired-delta aggregator (deltas.go). Execute pushes trials into it in
// global job order; PartialResult restores one from a checkpoint. Both
// summarize through result, so a partial summary can never disagree
// with the live collector's. Only one goroutine may use a collector.
type collector struct {
	ident CheckpointConfig
	// next is the watermark: trials are aggregated strictly in global
	// job order, so jobs [0, next) — always a contiguous prefix — are
	// in the aggregates.
	next       int
	failures   []TrialFailure
	onlines    [][]stats.Online
	reservoirs [][]*stats.Reservoir
	points     [][]float64
	deltas     *deltaAgg
}

// newCollector allocates empty aggregation state for one sweep
// identity. A checkpoint's identity must pass validateCheckpoint
// first: the state is sized from it.
func newCollector(ident CheckpointConfig) *collector {
	nScen, nMet := len(ident.Scenarios), len(Metrics)
	root := stats.NewRNG(ident.Seed)
	c := &collector{
		ident:      ident,
		onlines:    make([][]stats.Online, nScen),
		reservoirs: make([][]*stats.Reservoir, nScen),
		points:     make([][]float64, nScen),
	}
	for si := 0; si < nScen; si++ {
		c.onlines[si] = make([]stats.Online, nMet)
		c.reservoirs[si] = make([]*stats.Reservoir, nMet)
		c.points[si] = make([]float64, nMet)
		for mi := range Metrics {
			rng := root.Split(streamReservoir | uint64(si)<<8 | uint64(mi)<<32)
			c.reservoirs[si][mi] = stats.NewReservoir(ident.ReservoirSize, rng)
			c.points[si][mi] = math.NaN()
		}
	}
	if ident.Deltas {
		c.deltas = newDeltaAgg(ident.Scenarios, ident.Trials, nMet)
	}
	return c
}

// push aggregates o as the trial at the watermark and advances it.
func (c *collector) push(o trialOut) {
	si, ti := c.next/c.ident.Trials, c.next%c.ident.Trials
	if o.fail != nil {
		c.failures = append(c.failures, *o.fail)
	}
	for mi, v := range o.vals {
		if ti == 0 {
			c.points[si][mi] = v
		}
		if v != v { // NaN: metric undefined for this trial
			continue
		}
		c.onlines[si][mi].Push(v)
		c.reservoirs[si][mi].Push(v)
	}
	if c.deltas != nil {
		// o.vals is a fresh per-trial slice (never recycled), so the
		// aggregator may retain baseline rows by reference.
		c.deltas.absorb(si, ti, o.vals)
	}
	c.next++
}

// state snapshots the aggregation state as a deep copy the caller
// owns.
func (c *collector) state() *CheckpointState {
	st := &CheckpointState{
		Config:    c.ident,
		NextJob:   c.next,
		Failures:  append([]TrialFailure(nil), c.failures...),
		Scenarios: make([]ScenarioCheckpoint, len(c.onlines)),
	}
	if c.deltas != nil {
		st.Deltas = c.deltas.state()
	}
	for si := range c.onlines {
		sc := ScenarioCheckpoint{
			Onlines:    make([]stats.OnlineState, len(c.onlines[si])),
			Reservoirs: make([]stats.ReservoirState, len(c.reservoirs[si])),
			Points:     make([]uint64, len(c.points[si])),
		}
		for mi := range c.onlines[si] {
			sc.Onlines[mi] = c.onlines[si][mi].State()
			sc.Reservoirs[mi] = c.reservoirs[si][mi].State()
			sc.Points[mi] = math.Float64bits(c.points[si][mi])
		}
		st.Scenarios[si] = sc
	}
	return st
}

// restore rehydrates a fresh collector from a checkpoint that
// validateCheckpoint has accepted for its identity.
func (c *collector) restore(st *CheckpointState) error {
	for si, sc := range st.Scenarios {
		for mi := range sc.Onlines {
			c.onlines[si][mi] = stats.RestoreOnline(sc.Onlines[mi])
			if err := c.reservoirs[si][mi].Restore(sc.Reservoirs[mi]); err != nil {
				return fmt.Errorf("sweep: checkpoint scenario %d metric %d: %w", si, mi, err)
			}
			c.points[si][mi] = math.Float64frombits(sc.Points[mi])
		}
	}
	if c.deltas != nil {
		c.deltas.restore(st.Deltas)
	}
	c.next = st.NextJob
	c.failures = append([]TrialFailure(nil), st.Failures...)
	return nil
}

// result summarizes the aggregates into the Result of the prefix up to
// the watermark. Every metric's interval asks for the same few
// Student-t quantiles, so one memo serves the whole summary.
func (c *collector) result() *Result {
	trials, scens := c.ident.Trials, c.ident.Scenarios
	tq := stats.NewTQuantiles(0.95)
	res := &Result{Trials: trials, Seed: c.ident.Seed, Scale: c.ident.Scale,
		Partial:  c.next < trials*len(scens),
		Failures: c.failures}
	for si, scen := range scens {
		done := min(max(c.next-si*trials, 0), trials)
		ss := ScenarioSummary{Scenario: scen, TrialsDone: done, Metrics: make([]MetricSummary, 0, len(Metrics))}
		for mi, def := range Metrics {
			o := &c.onlines[si][mi]
			r := c.reservoirs[si][mi]
			ci := o.MeanCI(tq)
			ss.Metrics = append(ss.Metrics, MetricSummary{
				Name:   def.Name,
				Paper:  def.Paper,
				N:      o.N(),
				Point:  Float(c.points[si][mi]),
				Mean:   Float(o.Mean()),
				StdDev: Float(o.StdDev()),
				CILo:   Float(ci.Lower),
				CIHi:   Float(ci.Upper),
				P5:     Float(r.Quantile(0.05)),
				P50:    Float(r.Quantile(0.50)),
				P95:    Float(r.Quantile(0.95)),
				Min:    Float(o.Min()),
				Max:    Float(o.Max()),
			})
		}
		res.Scenarios = append(res.Scenarios, ss)
	}
	if d := c.deltas; d != nil {
		for si, scen := range scens {
			if si == d.bi {
				continue
			}
			sd := ScenarioDeltas{
				Scenario: scen.Name,
				Baseline: scens[d.bi].Name,
				Metrics:  make([]DeltaSummary, 0, len(Metrics)),
			}
			for mi, def := range Metrics {
				p := &d.paired[si][mi]
				ci := p.MeanCI(tq)
				sd.Metrics = append(sd.Metrics, DeltaSummary{
					Name:   def.Name + "_delta",
					N:      p.N(),
					Mean:   Float(p.Mean()),
					StdDev: Float(p.StdDev()),
					CILo:   Float(ci.Lower),
					CIHi:   Float(ci.Upper),
					Corr:   Float(p.Corr()),
				})
			}
			res.Deltas = append(res.Deltas, sd)
		}
	}
	return res
}
