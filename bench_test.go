// Benchmarks regenerating every table and figure in the paper's
// evaluation (one benchmark per artifact), plus
// micro-benchmarks of the heavy primitives. Each figure benchmark
// measures the analysis itself over a prepared environment — the
// simulate-once cost is excluded via a shared setup — so the numbers
// reflect the cost of the paper's methodology at reproduction scale.
//
// Run with:
//
//	go test -bench=. -benchmem
package storagesubsys_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"storagesubsys/internal/autosupport"
	"storagesubsys/internal/core"
	"storagesubsys/internal/eventlog"
	"storagesubsys/internal/experiments"
	"storagesubsys/internal/expreport"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/stats"
	"storagesubsys/internal/sweep"
	"storagesubsys/internal/sweepd"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

// env prepares a 5%-scale environment shared by the figure benchmarks.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = experiments.Setup(experiments.Config{Scale: 0.05, Seed: 42})
	})
	return benchEnv
}

func benchExperiment(b *testing.B, name string) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(name, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Overview regenerates Table 1 (E1).
func BenchmarkTable1Overview(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig4AFRBreakdown regenerates Figure 4(a)(b) (E2).
func BenchmarkFig4AFRBreakdown(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5DiskModel regenerates Figure 5(a)-(f) (E3).
func BenchmarkFig5DiskModel(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6ShelfModel regenerates Figure 6(a)-(d) (E4).
func BenchmarkFig6ShelfModel(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Multipath regenerates Figure 7(a)(b) (E5).
func BenchmarkFig7Multipath(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig9Gaps regenerates Figure 9(a)(b) (E6).
func BenchmarkFig9Gaps(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10Correlation regenerates Figure 10(a)(b) (E7).
func BenchmarkFig10Correlation(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFindings evaluates Findings 1-11 (E8).
func BenchmarkFindings(b *testing.B) { benchExperiment(b, "findings") }

// BenchmarkSpanAblation runs the shelf-spanning ablation (E9). Includes
// two fleet rebuild + simulate cycles per iteration by design.
func BenchmarkSpanAblation(b *testing.B) {
	e := experiments.Setup(experiments.Config{Scale: 0.01, Seed: 42})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run("span", io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMTTDL runs the RAID correlated-vs-independent replay (E10).
func BenchmarkMTTDL(b *testing.B) { benchExperiment(b, "mttdl") }

// --- substrate micro-benchmarks ---

// benchmarkBuild measures topology construction at the given population
// scale.
func benchmarkBuild(b *testing.B, scale float64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fleet.BuildDefault(scale, 42)
	}
}

// BenchmarkFleetBuild measures topology construction (~17k disks).
func BenchmarkFleetBuild(b *testing.B) { benchmarkBuild(b, 0.01) }

// BenchmarkFleetClone copies a pristine ~17k-disk fleet: the sweepd
// fleet cache's hit path, which hands every requester a Clone.
func BenchmarkFleetClone(b *testing.B) {
	f := fleet.BuildDefault(0.01, 42)
	b.ReportAllocs()
	for b.Loop() {
		f.Clone()
	}
}

// BenchmarkBuildFullScale constructs the paper's full 39,000-system /
// ~1.7M-disk population on every processor: the builder's wall-clock,
// B/op and allocs/op target (a build should allocate little beyond the
// fleet itself); the legacy builder took minutes here.
func BenchmarkBuildFullScale(b *testing.B) { benchmarkBuild(b, 1.0) }

// BenchmarkBuildFullScaleSerial is BenchmarkBuildFullScale at
// GOMAXPROCS 1: the same census, fill and compact on one core, so a
// growth in the build's work shows even where idle cores would hide it
// from BenchmarkBuildFullScale. A build at a key change mid-job shares
// the processors with running trials; two busy cores run the
// per-system work slower than one, which this figure leaves out.
func BenchmarkBuildFullScaleSerial(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchmarkBuild(b, 1.0)
}

// benchmarkSimulate measures a full 44-month failure simulation at the
// given population scale (fleet build excluded).
func benchmarkSimulate(b *testing.B, scale float64) {
	params := failmodel.DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := fleet.BuildDefault(scale, 42)
		b.StartTimer()
		sim.Run(f, params, 43)
	}
}

// BenchmarkSimulate measures the engine over ~17k disks.
func BenchmarkSimulate(b *testing.B) { benchmarkSimulate(b, 0.01) }

// BenchmarkSimulateFullScale runs the paper's full 39,000-system /
// ~1.8M-disk population.
func BenchmarkSimulateFullScale(b *testing.B) { benchmarkSimulate(b, 1.0) }

// builtinGrid returns the scenario list of a built-in grid, resolved
// exactly as cmd/sweep -grid resolves it.
func builtinGrid(b *testing.B, name string) []sweep.Scenario {
	spec, err := scenario.Builtin(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec.Scenarios
}

// executeSweep runs cfg to completion, failing the benchmark on error.
func executeSweep(b *testing.B, cfg sweep.Config) *sweep.Result {
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// benchmarkSweep measures the Monte-Carlo engine end to end: a
// 4-trial two-scenario sweep at 1% scale, including the per-scenario
// fleet build, the Reset-and-rerun trial loop over recycled sim
// scratch, metric extraction, and ordered aggregation.
func benchmarkSweep(b *testing.B, workers int) {
	cfg := sweep.Config{Trials: 4, Seed: 42, Scale: 0.01, Workers: workers, Scenarios: builtinGrid(b, "smoke")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		executeSweep(b, cfg)
	}
}

// BenchmarkSweep runs the sweep on a single trial worker — the
// per-trial steady-state cost target (BENCH_PR4.json).
func BenchmarkSweep(b *testing.B) { benchmarkSweep(b, 1) }

// BenchmarkSweepWorkersMax shards the trials over every available CPU.
func BenchmarkSweepWorkersMax(b *testing.B) { benchmarkSweep(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSweepPairedDeltas measures the sweep with CRN paired-delta
// aggregation on: the same smoke grid as BenchmarkSweep plus the
// deltaAgg absorbing every trial vector and the delta-table summaries.
// The difference against BenchmarkSweep is the cost of the
// variance-reduction layer itself.
func BenchmarkSweepPairedDeltas(b *testing.B) {
	cfg := sweep.Config{Trials: 4, Seed: 42, Scale: 0.01, Workers: 1, Deltas: true, Scenarios: builtinGrid(b, "smoke")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		executeSweep(b, cfg)
	}
}

// BenchmarkSweepOpsGrid measures the operational-dimension grid
// (install-window skew, churn, repair lag, sparse shelves): six
// scenarios, four of whose topology dimensions defeat the worker's
// fleet cache, so this includes four extra fleet builds per run
// (slow-repair only overrides the failure model and reuses the
// baseline fleet via Reset).
func BenchmarkSweepOpsGrid(b *testing.B) {
	cfg := sweep.Config{Trials: 2, Seed: 42, Scale: 0.01, Workers: 1, Scenarios: builtinGrid(b, "ops")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		executeSweep(b, cfg)
	}
}

// BenchmarkSweepdStatus measures sweepd's read path through
// Server.Handler: GET /v1/jobs/{id} (status with per-scenario partial
// results) and GET /v1/jobs (the listing), against a server holding one
// two-scenario job parked mid-run at watermark 8 of 16.
func BenchmarkSweepdStatus(b *testing.B) {
	gate := make(chan struct{})
	var calls atomic.Int32
	srv, err := sweepd.New(sweepd.Config{
		Dir: b.TempDir(), Pool: 1, JobWorkers: 1, CheckpointEvery: 1,
		Base: sweep.Config{Trials: 8, Seed: 42, Scale: 0.004},
		JobHooks: func(string) *sweep.Hooks {
			return &sweep.Hooks{BeforeTrialAttempt: func(string, int, int) {
				if calls.Add(1) == 9 {
					<-gate // park trial 8 once trials 0-7 are checkpointed
				}
			}}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		close(gate)
		srv.Drain()
	}()
	h := srv.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	spec := `{"name": "status", "scenarios": [{"name": "baseline"}, {"name": "repair-lag-x4", "repairLagMult": 4}]}`
	if w := serve(http.MethodPost, "/v1/jobs", spec); w.Code != http.StatusCreated {
		b.Fatalf("submit: status %d, body %q", w.Code, w.Body)
	}
	for i := 0; !strings.Contains(serve(http.MethodGet, "/v1/jobs/job-000001", "").Body.String(), `"trialsDone":8,"trialsTotal"`); i++ {
		if i == 60000 {
			b.Fatal("job did not reach watermark 8 in time")
		}
		time.Sleep(time.Millisecond)
	}
	for _, bm := range []struct{ name, path string }{
		{"status", "/v1/jobs/job-000001"},
		{"list", "/v1/jobs"},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w := serve(http.MethodGet, bm.path, ""); w.Code != http.StatusOK {
					b.Fatalf("GET %s: status %d", bm.path, w.Code)
				}
			}
		})
	}
}

// BenchmarkExpreportRender measures joining a sweep result against the
// paperref registry and rendering the full EXPERIMENTS.md markdown
// (the sweep itself is excluded via setup).
func BenchmarkExpreportRender(b *testing.B) {
	res := executeSweep(b, sweep.Config{Trials: 2, Seed: 42, Scale: 0.005, Workers: runtime.GOMAXPROCS(0),
		Scenarios: builtinGrid(b, "ops")})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := expreport.RenderSpec(io.Discard, res, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmitLogs measures emitting events' message chains into a
// reused buffer.
func BenchmarkEmitLogs(b *testing.B) {
	e := env(b)
	events := e.Events
	if len(events) > 2000 {
		events = events[:2000]
	}
	var msgs []eventlog.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msgs = msgs[:0]
		for _, e := range events {
			msgs = eventlog.Emit(msgs, e)
		}
	}
}

// BenchmarkParseAndClassify measures the mining path over rendered text.
func BenchmarkParseAndClassify(b *testing.B) {
	e := env(b)
	events := e.Events
	if len(events) > 2000 {
		events = events[:2000]
	}
	var sb strings.Builder
	for _, ev := range events {
		for _, m := range eventlog.Emit(nil, ev) {
			sb.WriteString(m.Line(e.Fleet).Render())
			sb.WriteByte('\n')
		}
	}
	text := sb.String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msgs, _, err := eventlog.ParseLog(strings.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		eventlog.Classify(msgs)
	}
}

// BenchmarkAutosupportCollect measures the weekly bundling pipeline.
func BenchmarkAutosupportCollect(b *testing.B) {
	f := fleet.BuildDefault(0.01, 42)
	res := sim.Run(f, failmodel.DefaultParams(), 43)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		autosupport.Collect(f, res.Events)
	}
}

// BenchmarkAnalyze measures the statistics one trial's metric vector
// and Findings read (Dataset.Analyze): the breakdowns, both scopes' gap
// analyses over their container indexes, and the shelf correlation.
func BenchmarkAnalyze(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Dataset.Analyze()
	}
}

// BenchmarkGapAnalysis measures the Figure 9 computation alone.
func BenchmarkGapAnalysis(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Dataset.Gaps(core.ByShelf, core.Filter{})
	}
}

// BenchmarkCorrelation measures the Figure 10 computation alone.
func BenchmarkCorrelation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Dataset.Correlation(core.ByShelf, core.CorrelationOptions{})
	}
}

// BenchmarkFitGamma measures gamma MLE over a 10k-point sample.
func BenchmarkFitGamma(b *testing.B) {
	r := stats.NewRNG(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Gamma(0.6, 1e7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.FitGamma(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitWeibull measures Weibull MLE over a 10k-point sample.
func BenchmarkFitWeibull(b *testing.B) {
	r := stats.NewRNG(2)
	xs := make([]float64, 10000)
	w := stats.NewWeibull(0.7, 1e7)
	for i := range xs {
		xs[i] = w.Quantile(r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.FitWeibull(xs); err != nil {
			b.Fatal(err)
		}
	}
}
