package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"storagesubsys/internal/core"
	"storagesubsys/internal/expreport"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
	"storagesubsys/internal/sweepd"
)

// Repetitions for the layer calls too short to time once.
const (
	parseReps  = 50
	ledgerReps = 10
)

// runTraced is the per-layer run. It first times one job as the untraced
// run runs it (trials_per_s, job_p50_ms; for svc these come from the
// sweepd load in step 3), then measures the job (for svc: one hot job
// spec) three ways:
//
//  1. The engine itself at Workers 1, untraced, twice: sweep.trial_ms is
//     the interval between successive BeforeTrialAttempt hooks.
//  2. The replica (replica.go) over the same trials, twice, with a span
//     around every layer call; self times give the per-stage numbers,
//     and sweep.coverage is the share of the engine's trial time the
//     stage spans explain.
//  3. sweepd serving the same spec over loopback: for svc the workload's
//     own load, for the sweep workloads a probe of openLoop jobs at one
//     trial per scenario, spaced by the measured job time.
//
// Layers the workload does not run (mining, findings) are probed once on
// scenario 0's trial 0, outside the trial spans, so every workload
// reports every layer. Correctness: the replica's trial-0 vectors and
// its aggregates over every trial must equal the engine's result bit for
// bit (replica.sameResult), and sweepd's /result must equal a direct
// sweep.Execute.
func runTraced(o *options, w workload) (*runResult, error) {
	tr := newTracer()
	ledgerTrace := w.Name + "/ledger"
	raw, spec, err := o.loadSpec(w)
	if err != nil {
		return nil, err
	}
	m := metricSet{}
	parse, err := repeatSpan(tr, ledgerTrace, "scenario.parse", parseReps, func() error {
		_, err := scenario.Parse(raw, w.Spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["scenario.parse_us"] = parse * 1000

	seed := newSeedSeq(o.seed).next()
	// The job as the untraced run runs it, at sweepWorkers, comes first:
	// it gives the job-level timings and grows the heap to the job's
	// working set, so no pass below pays the page faults of a cold heap
	// that another does not.
	job, err := runJob(o, w, seed, sweepWorkers, filepath.Join(o.work, "job.ckpt"))
	if err != nil {
		return nil, err
	}
	m["trials_per_s"] = float64(job.res.TrialsDone()) / (job.ms / 1000)
	m["job_p50_ms"] = job.ms
	cfg := sweepConfig(spec, w, seed, 1, filepath.Join(o.work, "engine.ckpt"))
	mines := false
	for _, sc := range cfg.Scenarios {
		mines = mines || sc.Mine
	}
	// The passes run engine, replica, replica, engine: the shared
	// machine's speed drifts over a run, and this order cancels a linear
	// drift from the engine-to-replica comparison.
	var engs []*engineRun
	var reps []*replica
	for _, engine := range []bool{true, false, false, true} {
		if engine {
			eng, err := enginePass(cfg)
			if err != nil {
				return nil, err
			}
			removeCheckpoint(cfg.CheckpointPath)
			engs = append(engs, eng)
			continue
		}
		rc := cfg
		rc.CheckpointPath = ""
		rep, err := newReplica(tr, w.Name, rc)
		if err != nil {
			return nil, err
		}
		var probe func(*fleet.Fleet, []failmodel.Event, *core.Dataset)
		if len(reps) == 0 {
			probe = func(f *fleet.Fleet, events []failmodel.Event, ds *core.Dataset) {
				trace := w.Name + "/probe"
				if !mines {
					rep.mine(trace, -1, f, events)
				}
				if !cfg.Findings {
					findingsPassed(tr, trace, -1, ds)
				}
			}
		}
		rep.run(probe)
		reps = append(reps, rep)
	}
	correct := job.failed() == 0
	for _, rep := range reps {
		if err := rep.sameResult(engs[0].res); err != nil {
			fmt.Fprintf(stderr, "%s: replica diverged from the engine: %v\n", w.Name, err)
			correct = false
		}
	}

	if err := layerCosts(m, tr, ledgerTrace, o.work, spec, engs[len(engs)-1]); err != nil {
		return nil, err
	}
	first := reps[0]
	l := newLedger(tr.spans)
	m["fleet.build_ms"] = l.meanMs("fleet.build")
	m["fleet.builds"] = float64(l.count["fleet.build"] / len(reps))
	m["fleet.reset_ms"] = l.meanMs("fleet.reset")
	m["fleet.mb"] = first.fleetMB
	m["sim.simulate_ms"] = l.meanMs("sim.simulate")
	m["sim.events"] = float64(first.events)
	m["autosupport.collect_ms"] = l.meanMs("autosupport.collect")
	m["autosupport.mine_ms"] = l.meanMs("autosupport.mine")
	m["autosupport.dropped_ratio"] = float64(first.dropped) / float64(first.mined+first.dropped)
	m["core.dataset_ms"] = l.meanMs("core.dataset")
	m["core.afr_ms"] = l.meanMs("core.afr")
	m["core.gaps_ms"] = l.meanMs("core.gaps")
	m["core.correlation_ms"] = l.meanMs("core.correlation")
	m["core.metrics_ms"] = l.meanMs("core.metrics")
	m["core.findings_ms"] = l.meanMs("core.findings")
	m["stats.aggregate_us"] = l.meanMs("stats.aggregate") * 1000

	var engTrials []float64
	engTotal, repTotal, covered := 0.0, 0.0, 0.0
	for _, eng := range engs {
		for _, t := range eng.trials {
			engTrials = append(engTrials, ms(t))
			engTotal += ms(t)
		}
	}
	self := selfTimes(tr.spans)
	perTrial := make([]time.Duration, len(first.trialDur))
	for _, rep := range reps {
		for i, id := range rep.trialIDs {
			repTotal += ms(rep.trialDur[i])
			covered += ms(rep.trialDur[i] - self[id])
			perTrial[i] += rep.trialDur[i]
		}
	}
	m["sweep.trial_ms_p50"] = median(engTrials)
	m["sweep.trial_ms_p99"] = quantile(engTrials, 0.99)
	m["sweep.coverage"] = covered / engTotal
	m["bench.trace_overhead"] = repTotal/engTotal - 1
	m["sweep.shard_skew"] = shardSkew(perTrial, sweepWorkers)

	// sweepd.
	var s *session
	var meas *svcMeasure
	if w.Name == wSvc {
		if s, err = newSession(o, w, true); err != nil {
			return nil, err
		}
		if meas, err = s.measure(svcPlan(o.seconds)); err == nil {
			// svc's job is an HTTP job: phase A's throughput and phase B's
			// latency replace the direct job's.
			m["trials_per_s"] = meas.trialsPerS
			m["job_p50_ms"] = median(meas.jobLat)
		}
	} else {
		s, meas, err = probeServe(o, w, msList(engs[0].trials), cfg.Trials)
	}
	if err != nil {
		return nil, err
	}
	if !s.verify() {
		correct = false
	}
	for _, route := range []string{"submit", "status", "list", "result"} {
		lat := s.c.routeLatencies(route)
		m["sweepd."+route+"_ms_p50"] = median(lat)
		m["sweepd."+route+"_ms_p99"] = quantile(lat, 0.99)
	}
	m["sweepd.queue_wait_ms_p50"] = median(meas.queueWait)
	m["sweepd.queue_wait_ms_p95"] = quantile(meas.queueWait, 0.95)
	m["sweepd.cache_hit_ratio"] = float64(meas.cache.Hits) / float64(meas.cache.Hits+meas.cache.Builds)
	m["bench.gen_lag_p99_ms"] = quantile(meas.genLag, 0.99)

	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return nil, err
		}
	}
	attempted := job.res.TrialsDone() + (len(engs)+len(reps))*len(first.trialIDs) + s.jobs
	return m.result(perLayer, correct, attempted, job.failed()+s.failedJobs)
}

// engineRun is one untraced engine pass.
type engineRun struct {
	res    *sweep.Result
	state  *sweep.CheckpointState // the final checkpoint
	trials []time.Duration        // per trial, global order
}

// enginePass runs cfg (which must use one worker) and times each trial
// from its BeforeTrialAttempt hook to the next one; the last trial ends
// when the final checkpoint is captured.
func enginePass(cfg sweep.Config) (*engineRun, error) {
	var mu sync.Mutex
	var starts []time.Time
	var last time.Time
	run := &engineRun{}
	cfg.Hooks = &sweep.Hooks{BeforeTrialAttempt: func(string, int, int) {
		now := time.Now()
		mu.Lock()
		starts = append(starts, now)
		mu.Unlock()
	}}
	cfg.OnCheckpoint = func(st *sweep.CheckpointState) {
		now := time.Now()
		mu.Lock()
		run.state, last = st, now
		mu.Unlock()
	}
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	if res.Partial || len(res.Failures) > 0 || len(starts) != res.TrialsDone() {
		return nil, fmt.Errorf("engine pass: %d attempts for %d trials (partial %v, %d failures)",
			len(starts), res.TrialsDone(), res.Partial, len(res.Failures))
	}
	run.res = res
	for i, t := range starts {
		end := last
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		run.trials = append(run.trials, end.Sub(t))
	}
	return run, nil
}

// layerCosts times the calls that follow the trial loop on the engine's
// own outputs: checkpoint save and partial-result rehydration of the
// final checkpoint, result encoding, and the expreport render.
func layerCosts(m metricSet, tr *tracer, trace, work string, spec *scenario.Spec, eng *engineRun) error {
	if eng.state == nil {
		return errors.New("engine pass captured no checkpoint")
	}
	path := filepath.Join(work, "ledger.ckpt")
	var err error
	if m["sweep.ckpt_save_ms"], err = repeatSpan(tr, trace, "sweep.ckpt_save", ledgerReps, func() error {
		return eng.state.Save(path, nil)
	}); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["sweep.ckpt_kb"] = float64(info.Size()) / 1024
	removeCheckpoint(path)
	if m["sweep.partial_ms"], err = repeatSpan(tr, trace, "sweep.partial", ledgerReps, func() error {
		_, err := eng.state.PartialResult()
		return err
	}); err != nil {
		return err
	}
	var buf bytes.Buffer
	if m["sweep.result_json_ms"], err = repeatSpan(tr, trace, "sweep.result_json", ledgerReps, func() error {
		buf.Reset()
		return eng.res.WriteJSON(&buf)
	}); err != nil {
		return err
	}
	m["sweep.result_kb"] = float64(buf.Len()) / 1024
	m["expreport.report_ms"], err = repeatSpan(tr, trace, "expreport.report", ledgerReps, func() error {
		return expreport.RenderSpec(io.Discard, eng.res, spec)
	})
	return err
}

// repeatSpan records n spans of f and returns their median in ms.
func repeatSpan(tr *tracer, trace, name string, n int, f func() error) (float64, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		id := tr.begin(trace, name, -1)
		err := f()
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, ms(tr.duration(id)))
	}
	return median(ds), nil
}

// shardSkew is the engine's contiguous trial sharding replayed on the
// measured per-trial costs: the busiest of workers' shards over the mean
// shard, minus one. 0 means every worker finishes together.
func shardSkew(costs []time.Duration, workers int) float64 {
	n := len(costs)
	loads := make([]float64, workers)
	total := 0.0
	for wi := range loads {
		for _, c := range costs[wi*n/workers : (wi+1)*n/workers] {
			loads[wi] += ms(c)
		}
		total += loads[wi]
	}
	busiest := 0.0
	for _, l := range loads {
		busiest = math.Max(busiest, l)
	}
	return busiest/(total/float64(workers)) - 1
}

// probeJobs is how many jobs the sweepd probe offers.
const probeJobs = 2

// probeServe serves a sweep workload's scenario file through sweepd: the
// spec at one trial per scenario under the run's first seed. A warm-up
// job builds the fleets; probeJobs more, offered open-loop one estimated
// job time apart so they rarely queue, hit the cache.
func probeServe(o *options, w workload, engTrials []float64, trials int) (*session, *svcMeasure, error) {
	s, err := newSession(o, w, true)
	if err != nil {
		return nil, nil, err
	}
	s.spec.Trials = 1
	s.trials = len(s.spec.Scenarios)
	s.hotFraction = 1
	// The svc load's cache is sized for its small fleets; the probe serves
	// fleets up to half scale, so it runs with sweepd's default budget.
	s.cacheBytes = sweepd.DefaultCacheBytes
	// A one-trial job costs about each scenario's trial 0 in the engine
	// pass, builds included.
	jobMs := 0.0
	for si := range s.spec.Scenarios {
		jobMs += engTrials[si*trials]
	}
	m, err := s.measure(plan{setups: 1, openJobs: probeJobs, openRate: 1000 / jobMs})
	return s, m, err
}
