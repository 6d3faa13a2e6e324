// Package sweepd is the sweep-as-a-service control plane: an HTTP
// server that accepts declarative scenario files (the exact validated
// JSON cmd/sweep -grid-file consumes) as job payloads, executes them
// on a bounded worker pool through the sweep engine's control-plane
// seams, and streams partial results while jobs run.
//
// The API (all under /v1):
//
//	POST   /v1/jobs             submit a scenario file; 201 + job status
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        status + per-scenario partial results
//	GET    /v1/jobs/{id}/result final sweep Result JSON (done jobs only)
//	GET    /v1/jobs/{id}/report expreport confrontation (done jobs only)
//	DELETE /v1/jobs/{id}        cancel (graceful drain, checkpoint kept)
//	GET    /v1/healthz          liveness + queue depth + cache stats
//
// Everything the server serves inherits the engine's determinism
// contract: the /result bytes for a job are byte-identical to running
// `sweep -grid-file <spec> -json` with the same base parameters, for
// any pool size, any per-job worker count, and any crash/restart/
// resume history — the server adds scheduling, caching and transport,
// never arithmetic. Partial results come from the same checkpoint
// states the crash-recovery machinery trusts (CheckpointState.
// PartialResult), so a status response can never disagree with what
// the finished sweep will say about its completed prefix.
//
// Determinism hygiene: the package deliberately uses no clocks and no
// randomness — job identity is a submission sequence number, ordering
// is submission order, and all timing-dependent behavior (which jobs a
// drain interrupts, where a cancel lands) affects only how much of a
// sweep completes before its checkpoint, which the engine already
// guarantees is invisible in the final bytes.
package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"storagesubsys/internal/expreport"
	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

// maxSpecBytes bounds a submitted scenario file. The largest committed
// spec is ~4 KiB; 1 MiB leaves three orders of magnitude of headroom
// while keeping a hostile payload from ballooning memory.
const maxSpecBytes = 1 << 20

// Config configures a Server.
type Config struct {
	// Dir is the state directory: one subdirectory per job (spec,
	// metadata, checkpoint, result). Required; created if absent. A
	// server restarted on the same Dir resumes every non-terminal job.
	Dir string
	// Pool bounds how many jobs execute concurrently (0 = 2). Queued
	// jobs wait FIFO.
	Pool int
	// JobWorkers is the per-job trial worker count (sweep.Config.
	// Workers; 0 = one per CPU). Identity-free: any value yields the
	// same result bytes.
	JobWorkers int
	// CheckpointEvery is the checkpoint cadence in completed trials
	// (0 = the engine default, 64). It is both the durability interval
	// and the partial-result refresh rate of the status endpoint.
	CheckpointEvery int
	// CacheBytes bounds the cross-job fleet cache (0 = DefaultCacheBytes;
	// negative = unbounded).
	CacheBytes int64
	// Base is the run configuration a spec's parameters overlay
	// (scenario.Spec.Config). The zero value selects DefaultBase, which
	// mirrors cmd/sweep's flag defaults — the setting under which a
	// job's result is byte-identical to `sweep -grid-file <spec> -json`.
	// Must be identical across restarts of the same Dir: it is part of
	// checkpoint identity, and a changed base fails resumed jobs.
	Base sweep.Config
	// JobHooks, when non-nil, supplies per-job fault-injection hooks
	// (sweep.Hooks) keyed by job ID — the test seam the recovery suite
	// drives kill points through. Nil in production.
	JobHooks func(id string) *sweep.Hooks
	// Logf, when non-nil, receives one-line operational messages
	// (job transitions, persistence errors). Nil discards them.
	Logf func(format string, args ...any)
}

// DefaultBase is sweep.DefaultConfig, the run defaults cmd/sweep's
// flags also start from: a spec submitted to a default server computes
// exactly what `sweep -grid-file <spec>` computes with default flags.
func DefaultBase() sweep.Config {
	return sweep.DefaultConfig()
}

// Server is the control plane: registry + FIFO queue + worker pool +
// fleet cache + HTTP handlers. Construct with New; shut down with
// Drain.
type Server struct {
	cfg   Config
	cache *FleetCache
	mux   *http.ServeMux

	mu       sync.Mutex
	cond     *sync.Cond // signals queue growth and shutdown
	jobs     map[string]*Job
	order    []*Job // submission order (seq ascending)
	queue    []*Job // FIFO, jobs in StateQueued
	nextSeq  int
	closed   bool // no more dequeues; runners exit
	draining atomic.Bool

	wg sync.WaitGroup // runner goroutines
}

// New builds a Server over cfg.Dir, restores any persisted jobs
// (re-enqueueing every non-terminal one), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("sweepd: Config.Dir is required")
	}
	if cfg.Pool <= 0 {
		cfg.Pool = 2
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.Base.Trials == 0 {
		cfg.Base = DefaultBase()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweepd: creating state dir: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		cache:   NewFleetCache(cfg.CacheBytes),
		jobs:    map[string]*Job{},
		nextSeq: 1,
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.restore(); err != nil {
		return nil, err
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	for i := 0; i < cfg.Pool; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s, nil
}

// Handler returns the server's HTTP handler (mountable under
// httptest.NewServer or http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats exposes the fleet cache counters (the concurrency tests'
// build-once probe; /v1/healthz serves the same numbers).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// logf emits an operational line through Config.Logf, if any.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// resolve overlays a spec on the server's base run parameters and pins
// the server-wide identity-free knobs. Per-job seams (checkpoint path,
// interrupt, observer, fleet source, hooks) are wired by runJob.
func (s *Server) resolve(spec *scenario.Spec) sweep.Config {
	cfg := spec.Config(s.cfg.Base)
	cfg.Workers = s.cfg.JobWorkers
	cfg.CheckpointEvery = s.cfg.CheckpointEvery
	return cfg
}

// validateResolved is sweep.CheckResolved under sweepd's prefix, so a
// spec rejected here is rejected by cmd/sweep with the same message.
func validateResolved(cfg sweep.Config) error {
	if err := sweep.CheckResolved(cfg); err != nil {
		return fmt.Errorf("sweepd: %w", err)
	}
	return nil
}

// JobStatus is the wire form of a job's current state, served by the
// status and list endpoints. Scenario detail is present on single-job
// GETs and elided from listings.
type JobStatus struct {
	ID     string   `json:"id"`
	Name   string   `json:"name"`
	Digest string   `json:"digest"`
	State  JobState `json:"state"`
	Error  string   `json:"error,omitempty"`
	// Trials/Seed/Scale echo the resolved run parameters.
	Trials int     `json:"trials"`
	Seed   int64   `json:"seed"`
	Scale  float64 `json:"scale"`
	// TrialsDone/TrialsTotal summarize progress across all scenarios;
	// TrialsDone is non-decreasing across successive polls of one job.
	TrialsDone  int `json:"trialsDone"`
	TrialsTotal int `json:"trialsTotal"`
	// Scenarios carries per-scenario partial results derived from the
	// latest checkpoint: completed trial counts, running means, and the
	// tightening 95% CIs.
	Scenarios []ScenarioStatus `json:"scenarios,omitempty"`
}

// ScenarioStatus is one scenario's slice of a partial (or final)
// result.
type ScenarioStatus struct {
	Name       string         `json:"name"`
	TrialsDone int            `json:"trialsDone"`
	Metrics    []MetricStatus `json:"metrics,omitempty"`
}

// MetricStatus is the streaming view of one metric: the observation
// count, the running mean, and the 95% CI that tightens as trials
// accumulate.
type MetricStatus struct {
	Name string      `json:"name"`
	N    int         `json:"n"`
	Mean sweep.Float `json:"mean"`
	CILo sweep.Float `json:"ci95lo"`
	CIHi sweep.Float `json:"ci95hi"`
}

// status snapshots a job for the wire; detail selects per-scenario
// results. It copies what the job holds and derives nothing: progress
// is derived when a checkpoint, the final result or a restore changes
// it.
func (s *Server) status(j *Job, detail bool) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.statusLocked(detail)
}

// statusLocked is status with the server mutex held.
func (j *Job) statusLocked(detail bool) JobStatus {
	js := JobStatus{
		ID: j.ID, Name: j.spec.Name, Digest: j.digest,
		State: j.state, Error: j.errMsg,
		Trials: j.cfg.Trials, Seed: j.cfg.Seed, Scale: j.cfg.Scale,
		TrialsDone:  j.progress.trialsDone,
		TrialsTotal: j.cfg.Trials * len(j.cfg.Scenarios),
	}
	if detail {
		js.Scenarios = j.progress.scenarios
	}
	return js
}

// progress is what a job's status reports of its results: the trials
// done and the per-scenario partial (or final) results. It is replaced
// whole, never modified, so statuses may share its slice.
type progress struct {
	trialsDone int
	scenarios  []ScenarioStatus
}

// withResult derives progress from a final or partial result, or from
// the scenario list alone when res is nil.
func withResult(res *sweep.Result, scens []sweep.Scenario) progress {
	var p progress
	if res == nil {
		for _, sc := range scens {
			p.scenarios = append(p.scenarios, ScenarioStatus{Name: sc.Name})
		}
		return p
	}
	for _, ss := range res.Scenarios {
		p.trialsDone += ss.TrialsDone
		sc := ScenarioStatus{Name: ss.Scenario.Name, TrialsDone: ss.TrialsDone}
		for _, m := range ss.Metrics {
			sc.Metrics = append(sc.Metrics, MetricStatus{
				Name: m.Name, N: m.N, Mean: m.Mean, CILo: m.CILo, CIHi: m.CIHi,
			})
		}
		p.scenarios = append(p.scenarios, sc)
	}
	return p
}

// finish marks the job done and derives its progress from the final
// result. The result itself stays on disk: /result and /report read
// result.json. Caller holds the server mutex.
func (j *Job) finish(res *sweep.Result) {
	j.state = StateDone
	j.progress = withResult(res, j.cfg.Scenarios)
}

// readResult reads and decodes a done job's result.json.
func (s *Server) readResult(j *Job) (*sweep.Result, error) {
	data, err := os.ReadFile(filepath.Join(j.dir(s.cfg.Dir), resultFile))
	if err != nil {
		return nil, err
	}
	res, err := sweep.DecodeResult(data)
	if err != nil {
		return nil, fmt.Errorf("sweepd: decoding %s result: %w", j.ID, err)
	}
	return res, nil
}

// --- HTTP handlers ---

// handleSubmit accepts a scenario file, validates it exactly like
// cmd/sweep (same parser, same positional errors, same post-merge
// checks), persists it, and enqueues the job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		http.Error(w, "sweepd: reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := scenario.Parse(body, "request body")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cfg := s.resolve(spec)
	if err := validateResolved(cfg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j := &Job{
		spec: spec, digest: spec.Digest(), cfg: cfg,
		state: StateQueued, progress: withResult(nil, cfg.Scenarios),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "sweepd: server is draining", http.StatusServiceUnavailable)
		return
	}
	j.ID, j.seq = jobID(s.nextSeq), s.nextSeq
	s.nextSeq++
	dir := j.dir(s.cfg.Dir)
	// Mkdir, not MkdirAll: a submission never writes into a directory
	// it did not create.
	if err := os.Mkdir(dir, 0o755); err == nil {
		err = writeFileAtomic(filepath.Join(dir, specFile), body)
	}
	if err == nil {
		err = s.persistLocked(j)
	}
	if err != nil {
		s.mu.Unlock()
		http.Error(w, "sweepd: persisting job: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.addLocked(j)
	s.queue = append(s.queue, j)
	s.cond.Signal()
	s.mu.Unlock()
	s.logf("sweepd: %s queued (%q, %d scenarios x %d trials)", j.ID, spec.Name, len(cfg.Scenarios), cfg.Trials)

	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusCreated, s.status(j, true))
}

// handleList serves every job, submission order, without scenario
// detail.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	out := struct {
		Jobs []JobStatus `json:"jobs"`
	}{}
	s.mu.Lock()
	out.Jobs = make([]JobStatus, len(s.order))
	for i, j := range s.order {
		out.Jobs[i] = j.statusLocked(false)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleStatus serves one job with per-scenario partial results.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.status(j, true))
}

// handleResult serves the final canonical Result JSON; 409 until the
// job is done.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	if state != StateDone {
		http.Error(w, fmt.Sprintf("sweepd: %s is %s; the final result exists only once the job is done", j.ID, state), http.StatusConflict)
		return
	}
	b, err := os.ReadFile(filepath.Join(j.dir(s.cfg.Dir), resultFile))
	if err != nil {
		http.Error(w, "sweepd: loading result: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleReport renders the expreport confrontation (paper bands plus
// the spec's own assertions) for a done job.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	state, spec, specErr := j.state, j.spec, j.specErr
	s.mu.Unlock()
	if state != StateDone {
		http.Error(w, fmt.Sprintf("sweepd: %s is %s; reports render only once the job is done", j.ID, state), http.StatusConflict)
		return
	}
	if specErr != nil {
		http.Error(w, fmt.Sprintf("sweepd: %s report needs its spec, which no longer parses: %v", j.ID, specErr), http.StatusConflict)
		return
	}
	res, err := s.readResult(j)
	if err != nil {
		http.Error(w, "sweepd: loading result: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	if err := expreport.RenderSpec(w, res, spec); err != nil {
		s.logf("sweepd: rendering %s report: %v", j.ID, err)
	}
}

// handleCancel flips the job's interrupt bit (running) or removes it
// from the queue (queued). A running job drains through the engine's
// Interrupt stop path — workers finish in-flight trials, the
// aggregated prefix is checkpointed — then lands in StateCancelled.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	switch j.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.state, j.resume = StateCancelled, nil
		j.cancel.Store(true)
		s.saveLocked(j)
		s.mu.Unlock()
		s.logf("sweepd: %s cancelled while queued", j.ID)
		writeJSON(w, http.StatusOK, s.status(j, true))
	case StateRunning:
		j.cancel.Store(true)
		s.mu.Unlock()
		// 202: the drain is in progress; poll the status endpoint for
		// the transition to cancelled.
		writeJSON(w, http.StatusAccepted, s.status(j, true))
	default:
		state := j.state
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("sweepd: %s is already %s", j.ID, state), http.StatusConflict)
	}
}

// handleHealth reports liveness, queue depth, and cache counters.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued, running := len(s.queue), 0
	for _, j := range s.order {
		if j.state == StateRunning {
			running++
		}
	}
	jobs := len(s.order)
	s.mu.Unlock()
	st := s.cache.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":     true,
		"jobs":   jobs,
		"queued": queued, "running": running,
		"cache": map[string]int{
			"builds": st.Builds, "hits": st.Hits, "evictions": st.Evictions,
		},
	})
}

// job resolves the {id} path parameter.
func (s *Server) job(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

// writeJSON writes one JSON response with a trailing newline (curl
// friendliness).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
