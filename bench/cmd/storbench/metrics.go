package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one metric the benchmark reports. BENCHMARK.json at the
// repository root records the same names, units and directions (and,
// for end-to-end metrics, the regression bound); TestBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
	// Moves and On record, for a per-layer metric, the job-level or
	// end-to-end metric a change to that layer should move and the
	// workloads it should move it on — written down before any
	// measurement, so a later claim can be checked against it. The
	// job-level metrics themselves leave them empty.
	Moves string
	On    []string
}

// Workload names, used by the metric targets below.
const (
	wOps     = "ops-quarter"
	wMine    = "mine-tenth"
	wNightly = "nightly-half"
	wSvc     = "svc"
)

var sweepWorkloads = []string{wOps, wMine, wNightly}

// endToEnd are the metrics a user of the system sees that repeat run to
// run closely enough to bound, measured with tracing off. Every workload
// reports every one of them: for the sweep workloads a job is one sweep
// of the workload's scenario file (parse → Execute → result JSON); for
// svc it is one HTTP job from the moment it was due to its /result
// bytes. setup_s has the widest bound allowed: it lasts a tenth of a
// second, so the machine's drift moves it most (its median moved by 18%
// between two sets of ten runs of one commit).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the traced run's metrics. The first two are the job-level
// timings, which the layer metrics after them name as what they should
// move; they are not end-to-end metrics because on the shared reference
// machine they did not repeat within a tenth between two sets of runs.
// The rest are one or more per module. Times are per operation (per
// trial for the trial stages) unless the name says otherwise.
var perLayer = []metricDef{
	{Name: "trials_per_s", Unit: "1/s", Better: "higher"},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s", On: []string{wOps, wMine, wNightly, wSvc}},
	{Name: "fleet.builds", Unit: "count", Better: "lower", Moves: "setup_s", On: []string{wOps, wMine, wNightly, wSvc}},
	{Name: "fleet.reset_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: []string{wNightly}},
	{Name: "fleet.mb", Unit: "MB", Better: "lower", Moves: "live_heap_mb", On: []string{wNightly}},
	{Name: "sim.simulate_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: []string{wOps, wNightly}},
	{Name: "sim.events", Unit: "count", Better: "lower", Moves: "trials_per_s", On: []string{wOps}},
	{Name: "autosupport.collect_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: []string{wMine}},
	{Name: "autosupport.mine_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: []string{wMine}},
	{Name: "autosupport.dropped_ratio", Unit: "ratio", Better: "lower", Moves: "trials_per_s", On: []string{wMine}},
	{Name: "core.dataset_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: []string{wOps, wNightly}},
	{Name: "core.afr_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: []string{wOps, wNightly}},
	{Name: "core.gaps_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: []string{wOps, wNightly}},
	{Name: "core.correlation_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: []string{wOps, wNightly}},
	{Name: "core.metrics_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: []string{wOps, wNightly}},
	{Name: "core.findings_ms", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: []string{wNightly}},
	{Name: "stats.aggregate_us", Unit: "us", Better: "lower", Moves: "trials_per_s", On: []string{wOps}},
	{Name: "sweep.trial_ms_p50", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: sweepWorkloads},
	{Name: "sweep.trial_ms_p99", Unit: "ms", Better: "lower", Moves: "trials_per_s", On: sweepWorkloads},
	{Name: "sweep.coverage", Unit: "ratio", Better: "higher", Moves: "trials_per_s", On: []string{wOps}},
	{Name: "sweep.ckpt_save_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc, wNightly}},
	{Name: "sweep.ckpt_kb", Unit: "KiB", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc, wNightly}},
	{Name: "sweep.partial_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweep.result_json_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweep.result_kb", Unit: "KiB", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweep.shard_skew", Unit: "ratio", Better: "lower", Moves: "trials_per_s", On: []string{wMine}},
	{Name: "scenario.parse_us", Unit: "us", Better: "lower", Moves: "setup_s", On: []string{wSvc}},
	{Name: "sweepd.submit_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweepd.submit_ms_p99", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweepd.status_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweepd.status_ms_p99", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweepd.list_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweepd.list_ms_p99", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweepd.result_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweepd.result_ms_p99", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweepd.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweepd.queue_wait_ms_p95", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "sweepd.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "expreport.report_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "bench.gen_lag_p99_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms", On: []string{wSvc}},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower", Moves: "trials_per_s", On: []string{wOps}},
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON object a run prints as the last line of its
// standard output.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metricSet collects one run's measured values by name.
type metricSet map[string]float64

// result assembles the run's JSON object from the metric table defs,
// failing if a metric is missing or not a finite number — every metric
// the benchmark declares must be measured on every workload.
func (m metricSet) result(defs []metricDef, correct bool, attempted, failed int) (*runResult, error) {
	out := &runResult{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printLines writes one "workload metric value unit" line per value in
// name order, the human-readable form of a run.
func printLines(w io.Writer, workload string, vals map[string]value) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, n, vals[n].Value, vals[n].Unit)
	}
}

// writeResult prints r as one JSON line.
func writeResult(w io.Writer, r *runResult) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
