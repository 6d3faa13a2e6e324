package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sweep"
)

// sweepWorkers is the engine's trial worker count: one per core of the
// two-core reference machine.
const sweepWorkers = 2

// minJobs is the fewest jobs a sweep run measures, so setup_s is a
// median of several samples even on a short run.
const minJobs = 3

// runSweep measures a sweep workload with tracing off: a closed loop of
// jobs, each one sweep of the workload's scenario file under the next
// seed of the run's sequence, until the run's seconds have elapsed.
//
//   - setup_s: a job's start (reading the spec) to its first fleet being
//     ready, observed through the FleetSource seam; the median over jobs.
//   - live_heap_mb: the mean live heap over the run (liveHeap).
//
// The job wall times and trial throughput go to the info line: they do
// not repeat run to run on a shared machine closely enough to bound, so
// the traced run reports them as per-layer numbers instead.
//
// Correctness is checked after the timed window: no job is Partial or
// has trial failures, and the first job passes Result.Check, which
// reruns every scenario's trial 0 on a fresh fleet and compares bit for
// bit.
func runSweep(o *options, w workload) (*runResult, error) {
	seeds := newSeedSeq(o.seed)
	var setups, jobs []float64
	trials, failed, jobsMs := 0, 0, 0.0
	var first *sweepJob
	live := startLiveHeap()
	start := time.Now()
	// Start a job only while it can finish inside the window, judging by
	// the last job's length, so a run measures about o.seconds.
	for n := 0; n < minJobs || time.Since(start).Seconds()+jobs[n-1]/1000 <= o.seconds; n++ {
		j, err := runJob(o, w, seeds.next(), sweepWorkers, filepath.Join(o.work, fmt.Sprintf("job-%d.ckpt", n)))
		if err != nil {
			return nil, fmt.Errorf("%s job %d: %w", w.Name, n, err)
		}
		jobs = append(jobs, j.ms)
		jobsMs += j.ms
		setups = append(setups, j.setup)
		trials += j.res.TrialsDone()
		failed += j.failed()
		if first == nil {
			first = j
		}
	}
	heap := live.stop()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "%s info: %d jobs, job p50 %.4g ms, %.4g trials/s, peak RSS %.4g MB\n",
		w.Name, len(jobs), median(jobs), float64(trials)/(jobsMs/1000), rss)
	correct := failed == 0
	if err := first.res.Check(first.cfg); err != nil {
		fmt.Fprintf(stderr, "%s: correctness check failed: %v\n", w.Name, err)
		correct = false
	}
	m := metricSet{"setup_s": median(setups), "live_heap_mb": heap}
	return m.result(endToEnd, correct, trials, failed)
}

// sweepJob is one timed job of a sweep workload: a sweep of its scenario
// file, from reading the spec to the result's JSON bytes.
type sweepJob struct {
	res   *sweep.Result
	cfg   sweep.Config // as run, without the FleetSource seam
	ms    float64      // wall time
	setup float64      // seconds from the job's start to its first fleet ready
}

// runJob runs one job of w under seed on workers trial workers,
// checkpointing into ckpt, which it removes afterwards.
func runJob(o *options, w workload, seed int64, workers int, ckpt string) (*sweepJob, error) {
	t0 := time.Now()
	_, spec, err := o.loadSpec(w)
	if err != nil {
		return nil, err
	}
	cfg := sweepConfig(spec, w, seed, workers, ckpt)
	var once sync.Once
	var ready time.Time
	cfg.FleetSource = func(_ sweep.FleetKey, _ int64, build func() *fleet.Fleet) *fleet.Fleet {
		f := build()
		once.Do(func() { ready = time.Now() })
		return f
	}
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	if _, err := resultBytes(res); err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	j := &sweepJob{res: res, ms: ms(time.Since(t0)), setup: ready.Sub(t0).Seconds()}
	removeCheckpoint(ckpt)
	cfg.FleetSource = nil
	j.cfg = cfg
	return j, nil
}

// failed counts the job's failed operations: its failed trials, plus one
// when the sweep ended Partial.
func (j *sweepJob) failed() int {
	n := len(j.res.Failures)
	if j.res.Partial {
		n++
	}
	return n
}
