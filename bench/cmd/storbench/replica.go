package main

// The replica: the sweep engine's trial loop rebuilt from the public
// calls the engine makes, so the benchmark can put a span around each
// layer without touching the program. It mirrors, step for step, one
// sweep worker at Workers 1 (internal/sweep retry.go attempt and
// metrics.go trialVector) and the collector's aggregator pushes
// (sweep.go push, deltas.go absorb). The traced run checks it stays
// faithful with sameResult: the replica's trial-0 vectors and its
// aggregates over every trial must equal the engine's result bit for
// bit. If the engine starts calling different public functions, update
// the replica in a benchmark change first.

import (
	"fmt"
	"math"
	"time"

	"storagesubsys/internal/autosupport"
	"storagesubsys/internal/core"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/stats"
	"storagesubsys/internal/sweep"
)

// Stream identities the engine splits its seeds on (internal/sweep's
// streamTrialSeed and streamReservoir).
const (
	streamTrialSeed uint64 = 0x57
	streamReservoir uint64 = 0x52
)

// reservoirSize is the engine's default quantile reservoir capacity.
const reservoirSize = 512

// replica replays a sweep config's trials in global order on one worker.
type replica struct {
	tr       *tracer
	workload string
	cfg      sweep.Config
	params   []*failmodel.Params

	// Worker state, as in the engine's trialWorker.
	f       *fleet.Fleet
	cp      fleet.Checkpoint
	haveKey sweep.FleetKey
	valid   bool
	scratch *sim.Scratch

	// Collector state.
	onlines    [][]stats.Online
	reservoirs [][]*stats.Reservoir
	paired     [][]stats.PairedOnline
	base       [][]float64
	baseIdx    int

	// Outputs.
	points   [][]float64     // trial-0 vector per scenario
	trialDur []time.Duration // replica trial span per job, global order
	trialIDs []int           // trial span index per job
	fleetMB  float64         // largest fleet built (ApproxBytes)
	events   int             // events simulated, all trials
	mined    int             // events recovered by mining
	dropped  int             // log records mining could not resolve
}

func newReplica(tr *tracer, workload string, cfg sweep.Config) (*replica, error) {
	if cfg.Variance != "" && cfg.Variance != sweep.VarianceNone {
		return nil, fmt.Errorf("replica models the plain engine only, not variance %q", cfg.Variance)
	}
	nScen, nMet := len(cfg.Scenarios), len(sweep.Metrics)
	r := &replica{tr: tr, workload: workload, cfg: cfg, scratch: &sim.Scratch{},
		onlines: make([][]stats.Online, nScen), reservoirs: make([][]*stats.Reservoir, nScen),
		points: make([][]float64, nScen), baseIdx: 0}
	root := stats.NewRNG(cfg.Seed)
	for si, sc := range cfg.Scenarios {
		if sc.Variance != "" && sc.Variance != sweep.VarianceNone {
			return nil, fmt.Errorf("replica models the plain engine only, not scenario %q variance %q", sc.Name, sc.Variance)
		}
		if sc.Name == sweep.BaselineName {
			r.baseIdx = si
		}
		r.params = append(r.params, scenarioParams(sc))
		r.onlines[si] = make([]stats.Online, nMet)
		r.reservoirs[si] = make([]*stats.Reservoir, nMet)
		for mi := range sweep.Metrics {
			rng := root.Split(streamReservoir | uint64(si)<<8 | uint64(mi)<<32)
			r.reservoirs[si][mi] = stats.NewReservoir(reservoirSize, rng)
		}
	}
	if cfg.Deltas {
		r.paired = make([][]stats.PairedOnline, nScen)
		for si := range r.paired {
			r.paired[si] = make([]stats.PairedOnline, nMet)
		}
		r.base = make([][]float64, cfg.Trials)
	}
	return r, nil
}

// scenarioParams mirrors the engine's Scenario.params: the failure-model
// overrides, or nil when the defaults apply.
func scenarioParams(s sweep.Scenario) *failmodel.Params {
	if s.DiskAFRMult == 0 && s.PIRateMult == 0 && s.PISingletonProb == 0 &&
		s.RepairLagMult == 0 && s.RepairLagSigma == 0 {
		return nil
	}
	p := failmodel.DefaultParams()
	if s.DiskAFRMult > 0 {
		p.ScaleDiskAFR(s.DiskAFRMult)
	}
	if s.PIRateMult > 0 {
		p.ScalePIRates(s.PIRateMult)
	}
	if s.PISingletonProb > 0 {
		p.PIBurst.SingletonProb = s.PISingletonProb
	}
	if s.RepairLagMult > 0 {
		p.ScaleRepairLag(s.RepairLagMult)
	}
	if s.RepairLagSigma > 0 {
		p.RepairLagSigma = s.RepairLagSigma
	}
	return p
}

// trialSeed mirrors the engine's per-trial seed derivation.
func trialSeed(seed int64, trial int) int64 {
	if trial == 0 {
		return seed + 1
	}
	r := stats.NewRNG(seed)
	c := r.Split(streamTrialSeed | uint64(trial)<<8)
	return int64(c.Uint64())
}

// run replays every trial in global order. probe, when set, is called
// after scenario 0's trial 0 with that trial's simulated events and
// dataset, outside the trial's span, for layers this workload does not
// otherwise exercise.
func (r *replica) run(probe func(f *fleet.Fleet, events []failmodel.Event, ds *core.Dataset)) {
	for si := range r.cfg.Scenarios {
		for ti := 0; ti < r.cfg.Trials; ti++ {
			vals, events, ds := r.trial(si, ti)
			if si == 0 && ti == 0 && probe != nil {
				probe(r.f, events, ds)
			}
			r.aggregate(si, ti, vals)
		}
	}
}

// trial is the engine's trialWorker.attempt plus experiments.RunTrial
// plus trialVector, with a span per layer call.
func (r *replica) trial(si, ti int) ([]float64, []failmodel.Event, *core.Dataset) {
	sc := r.cfg.Scenarios[si]
	trace := fmt.Sprintf("%s/%s/%d", r.workload, sc.Name, ti)
	root := r.tr.begin(trace, "sweep.trial", -1)
	r.trialIDs = append(r.trialIDs, root)

	key := sc.FleetKeyIn(r.cfg.Scale)
	if !r.valid || key != r.haveKey {
		r.tr.do(trace, "fleet.build", root, func() {
			r.f = sweep.BuildFleet(key, r.cfg.Seed)
			r.cp = r.f.Checkpoint()
		})
		r.haveKey, r.valid = key, true
		r.fleetMB = math.Max(r.fleetMB, float64(r.f.ApproxBytes())/(1<<20))
	} else {
		r.tr.do(trace, "fleet.reset", root, func() { r.f.Reset(r.cp) })
	}

	var res *sim.Result
	r.tr.do(trace, "sim.simulate", root, func() {
		params := r.params[si]
		if params == nil {
			params = failmodel.DefaultParams()
		}
		res = sim.RunWorkersOpts(r.f, params, trialSeed(r.cfg.Seed, ti), 1, r.scratch, sim.Opts{})
	})
	r.events += len(res.Events)
	events := res.Events
	dropped := 0
	if sc.Mine {
		events, dropped = r.mine(trace, root, r.f, res.Events)
	}
	var ds *core.Dataset
	r.tr.do(trace, "core.dataset", root, func() { ds = core.NewDataset(r.f, events) })
	vals := r.vector(trace, root, ds, sc.Mine, dropped)
	r.tr.end(root)
	r.trialDur = append(r.trialDur, r.tr.duration(root))
	if ti == 0 {
		r.points[si] = vals
	}
	return vals, res.Events, ds
}

// mine is the autosupport stage: render and bucket the log, then parse,
// classify and resolve it back into events.
func (r *replica) mine(trace string, parent int, f *fleet.Fleet, simEvents []failmodel.Event) ([]failmodel.Event, int) {
	var db *autosupport.Database
	r.tr.do(trace, "autosupport.collect", parent, func() { db = autosupport.Collect(f, simEvents) })
	var events []failmodel.Event
	var dropped int
	r.tr.do(trace, "autosupport.mine", parent, func() { events, dropped = db.MineEvents() })
	r.mined += len(events)
	r.dropped += dropped
	return events, dropped
}

// vector computes the engine's trialVector values. The analyses are
// pure reads of the dataset, so they are grouped by layer here and the
// vector assembled in registry order afterwards.
func (r *replica) vector(trace string, parent int, ds *core.Dataset, mine bool, dropped int) []float64 {
	out := make([]float64, 0, len(sweep.Metrics))
	metrics := r.tr.begin(trace, "core.metrics", parent)

	var byClass map[string]core.Breakdown
	var hRatio, capRatio, shelfDelta, totalRed, piRed float64
	var capPairs int
	var spread core.EnvSpread
	r.tr.do(trace, "core.afr", metrics, func() {
		byClass = make(map[string]core.Breakdown, len(fleet.Classes))
		for _, b := range ds.AFRByClass(core.Filter{ExcludeFamily: fleet.ProblemFamily}) {
			byClass[b.Label] = b
		}
		hRatio = familyHRatio(ds)
		spread = ds.EnvAFRSpread()
		capRatio, capPairs = ds.CapacityAFRMeanRatio()
		shelfDelta = ds.ShelfModelPIDelta()
		totalRed, piRed = ds.MultipathReductions()
	})
	var gaps [4]float64
	r.tr.do(trace, "core.gaps", metrics, func() {
		shelf := ds.Gaps(core.ByShelf, core.Filter{})
		rg := ds.Gaps(core.ByRAIDGroup, core.Filter{})
		gaps = [4]float64{
			shelf.OverallFractionWithin(core.BurstThreshold),
			rg.OverallFractionWithin(core.BurstThreshold),
			shelf.FractionWithin(failmodel.DiskFailure, core.BurstThreshold),
			shelf.FractionWithin(failmodel.PhysicalInterconnect, core.BurstThreshold),
		}
	})
	corrDisk, corrPI := math.NaN(), math.NaN()
	r.tr.do(trace, "core.correlation", metrics, func() {
		for _, c := range ds.Correlation(core.ByShelf, core.CorrelationOptions{}) {
			switch c.Type {
			case failmodel.DiskFailure:
				corrDisk = c.Ratio
			case failmodel.PhysicalInterconnect:
				corrPI = c.Ratio
			}
		}
	})
	findings := math.NaN()
	if r.cfg.Findings {
		findings = findingsPassed(r.tr, trace, metrics, ds)
	}

	visible := 0
	for _, e := range ds.Events {
		if e.Visible() {
			visible++
		}
	}
	out = append(out, float64(visible))
	classStat := func(f func(core.Breakdown) float64) {
		for _, c := range fleet.Classes {
			b, ok := byClass[c.String()]
			if !ok || b.DiskYears == 0 {
				out = append(out, math.NaN())
				continue
			}
			out = append(out, f(b))
		}
	}
	classStat(func(b core.Breakdown) float64 { return b.TotalAFR() })
	classStat(func(b core.Breakdown) float64 { return b.Share(failmodel.DiskFailure) })
	classStat(func(b core.Breakdown) float64 { return b.Share(failmodel.PhysicalInterconnect) })
	diskAFR := func(class fleet.SystemClass) float64 {
		b, ok := byClass[class.String()]
		if !ok || b.DiskYears == 0 {
			return math.NaN()
		}
		return b.AFR[failmodel.DiskFailure]
	}
	out = append(out, diskAFR(fleet.NearLine), diskAFR(fleet.LowEnd), hRatio)
	out = append(out, gaps[:]...)
	out = append(out, corrDisk, corrPI, findings)
	if mine {
		out = append(out, float64(dropped))
	} else {
		out = append(out, math.NaN())
	}
	if spread.Models == 0 {
		out = append(out, math.NaN(), math.NaN())
	} else {
		out = append(out, spread.DiskRelStd, spread.SubsysRelStd)
	}
	if capPairs == 0 {
		out = append(out, math.NaN())
	} else {
		out = append(out, capRatio)
	}
	out = append(out, shelfDelta, totalRed, piRed)
	r.tr.end(metrics)
	return out
}

// findingsPassed is the findings_pass metric: Findings 1-11 evaluated
// and the passing ones counted.
func findingsPassed(tr *tracer, trace string, parent int, ds *core.Dataset) float64 {
	pass := 0
	tr.do(trace, "core.findings", parent, func() {
		for _, fd := range ds.EvaluateFindings() {
			if fd.Pass {
				pass++
			}
		}
	})
	return float64(pass)
}

// familyHRatio mirrors the engine's Finding 3 statistic.
func familyHRatio(ds *core.Dataset) float64 {
	bs := ds.AFRByGroup(func(s *fleet.System) (string, bool) {
		if s.Class == fleet.NearLine {
			return "", false
		}
		if s.DiskModel.Family == fleet.ProblemFamily {
			return "H", true
		}
		return "other", true
	}, core.Filter{})
	var h, rest core.Breakdown
	var okH, okRest bool
	for _, b := range bs {
		switch b.Label {
		case "H":
			h, okH = b, true
		case "other":
			rest, okRest = b, true
		}
	}
	if !okH || !okRest || rest.TotalAFR() == 0 {
		return math.NaN()
	}
	return h.TotalAFR() / rest.TotalAFR()
}

// aggregate is the collector's push of one trial vector: per-metric
// Welford moments and quantile reservoir, plus the paired-delta fold
// when the sweep reports deltas. It runs outside the trial span, as the
// engine's collector runs beside its workers. Scenarios listed before
// the baseline, whose rows the engine buffers until the baseline's
// arrive, are not paired: every workload lists its baseline first.
func (r *replica) aggregate(si, ti int, vals []float64) {
	trace := fmt.Sprintf("%s/%s/%d", r.workload, r.cfg.Scenarios[si].Name, ti)
	r.tr.do(trace, "stats.aggregate", -1, func() {
		for mi, v := range vals {
			if v != v {
				continue
			}
			r.onlines[si][mi].Push(v)
			r.reservoirs[si][mi].Push(v)
		}
		if r.paired == nil {
			return
		}
		if si == r.baseIdx {
			r.base[ti] = vals
			return
		}
		if base := r.base[ti]; base != nil && si > r.baseIdx {
			for mi := range vals {
				if !math.IsNaN(vals[mi]) && !math.IsNaN(base[mi]) {
					r.paired[si][mi].Push(vals[mi], base[mi])
				}
			}
		}
	})
}

// Summary fields sameResult compares, in the order it lists them.
var (
	metricFields = []string{"point", "n", "mean", "stddev", "min", "max", "p5", "p50", "p95"}
	deltaFields  = []string{"n", "mean", "stddev", "corr"}
)

// sameResult checks a finished replica against the engine's result of
// the same config, bit for bit with NaN equal to NaN. The point is
// trial 0's vector, which pins every layer call; the moments, extremes
// and reservoir quantiles cover every later trial (their seeds), the
// reservoir streams and the collector's fold; the delta summaries cover
// the paired fold against the baseline.
func (r *replica) sameResult(res *sweep.Result) error {
	for si, ss := range res.Scenarios {
		for mi, sum := range ss.Metrics {
			o, q := &r.onlines[si][mi], r.reservoirs[si][mi]
			got := []float64{r.points[si][mi], float64(o.N()), o.Mean(), o.StdDev(), o.Min(), o.Max(),
				q.Quantile(0.05), q.Quantile(0.50), q.Quantile(0.95)}
			want := []float64{float64(sum.Point), float64(sum.N), float64(sum.Mean), float64(sum.StdDev),
				float64(sum.Min), float64(sum.Max), float64(sum.P5), float64(sum.P50), float64(sum.P95)}
			if i := firstDiff(got, want); i >= 0 {
				return fmt.Errorf("scenario %q metric %s %s: replica %v, engine %v",
					ss.Scenario.Name, sum.Name, metricFields[i], got[i], want[i])
			}
		}
	}
	if (r.paired != nil) != (len(res.Deltas) > 0) {
		return fmt.Errorf("replica pairs deltas: %v; engine reports %d delta blocks", r.paired != nil, len(res.Deltas))
	}
	for _, sd := range res.Deltas {
		si := -1
		for i, sc := range r.cfg.Scenarios {
			if sc.Name == sd.Scenario {
				si = i
			}
		}
		if si < 0 {
			return fmt.Errorf("engine reports deltas for unknown scenario %q", sd.Scenario)
		}
		for mi, d := range sd.Metrics {
			p := &r.paired[si][mi]
			got := []float64{float64(p.N()), p.Mean(), p.StdDev(), p.Corr()}
			want := []float64{float64(d.N), float64(d.Mean), float64(d.StdDev), float64(d.Corr)}
			if i := firstDiff(got, want); i >= 0 {
				return fmt.Errorf("scenario %q metric %s %s: replica %v, engine %v", sd.Scenario, d.Name, deltaFields[i], got[i], want[i])
			}
		}
	}
	return nil
}

// firstDiff returns the first index at which got and want differ bit
// for bit, NaN equal to NaN, or -1.
func firstDiff(got, want []float64) int {
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}
