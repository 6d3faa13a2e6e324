package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/stats"
	"storagesubsys/internal/sweep"
	"storagesubsys/internal/sweepd"
)

// The svc workload's load shape. The client behaviour (hot fraction,
// report share, poll and dashboard periods) is an assumption the
// benchmark fixes, not recorded sweepd traffic, of which there is none;
// openRatePerSec is the one measured value.
const (
	// closedClients is phase A's closed-loop client count, one per core
	// of the reference machine.
	closedClients = 2
	// closedShare is phase A's share of the run; phase B has the rest.
	closedShare = 0.5
	// openRatePerSec is phase B's offered job rate, frozen at about half
	// the phase-A job rate measured on the reference machine, so the
	// server is loaded but its queue does not grow.
	openRatePerSec = 6.0
	// pollEvery is how often a client polls its job's status.
	pollEvery = 25 * time.Millisecond
	// reportEvery: every reportEvery-th job also fetches its /report.
	reportEvery = 4
	// hotFraction of jobs reuse the hot seed and hit the fleet cache; the
	// rest draw a fresh seed and build.
	hotFraction = 0.75
	// dashboardEvery is the period of the dashboard's job-list poll.
	dashboardEvery = 500 * time.Millisecond
	// maxConns caps the client's connections, as many as the load has
	// clients in phase A.
	maxConns = 2
)

// The served sweepd's configuration: two jobs at a time on one trial
// worker each fill the two cores, and a checkpoint after every trial
// puts checkpoint writes and partial-result reads on each job's path.
const (
	svcPool            = 2
	svcJobWorkers      = 1
	svcCheckpointEvery = 1
	// svcCacheBytes holds about a dozen fleets of the svc job's scale, as
	// sweepd's default budget does at quarter scale, so the cache reaches
	// its steady state early in a run.
	svcCacheBytes = 64 << 20
)

// setupRuns is how many times a svc run starts a server and fills its
// fleet cache; setup_s is the median.
const setupRuns = 5

// runSvc measures the svc workload with tracing off.
//
//   - setup_s: server start plus one warm-up job that fills the hot
//     seed's fleet cache entry, the median of setupRuns fresh servers.
//   - live_heap_mb: the mean live heap over both phases (liveHeap).
//
// Phase A is a closed loop of closedClients clients and phase B an open
// loop at openRatePerSec, each job timed from when it was due to its
// /result bytes. Their throughput and latencies go to the info line; the
// traced run reports phase A's trials/s and phase B's median job time as
// per-layer numbers.
//
// Both phases share one job sequence drawn from the seed. Correctness:
// every job ends done, same-spec jobs return identical bytes, and the
// first four distinct specs match a direct sweep.Execute.
func runSvc(o *options, w workload) (*runResult, error) {
	s, err := newSession(o, w, false)
	if err != nil {
		return nil, err
	}
	m, err := s.measure(svcPlan(o.seconds))
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	correct := s.verify()
	fmt.Fprintf(stderr, "svc info: phase A %.4g jobs/s, %.4g trials/s; phase B %d jobs, job p50 %.4g ms, p95 %.4g ms, http p50 %.4g ms, generator lag p99 %.4g ms; %d/%d requests failed; peak RSS %.4g MB\n",
		m.closedJobsPerS, m.trialsPerS, len(m.jobLat), median(m.jobLat), quantile(m.jobLat, 0.95), median(m.httpLat),
		quantile(m.genLag, 0.99), s.c.failures, s.c.requests, rss)
	vals := metricSet{"setup_s": m.setup, "live_heap_mb": m.liveHeap}
	return vals.result(endToEnd, correct, s.jobs, s.failedJobs)
}

// session is one svc run: the measured server, its client, the job
// mix, and the correctness record.
type session struct {
	o      *options
	spec   *scenario.Spec
	trials int // trials per job
	hot    int64
	traced bool
	// hotFraction and cacheBytes are the load's values, which the sweepd
	// probe of the sweep workloads overrides.
	hotFraction float64
	cacheBytes  int64

	srv    *svcServer
	c      *client
	mixMu  sync.Mutex
	mix    *stats.RNG
	mixN   int
	setups []float64

	mu         sync.Mutex
	jobs       int
	failedJobs int
	bySeed     map[int64][]byte
	seedOrder  []int64
	mismatch   int
}

func newSession(o *options, w workload, traced bool) (*session, error) {
	_, spec, err := o.loadSpec(w)
	if err != nil {
		return nil, err
	}
	hot := newSeedSeq(o.seed).next()
	return &session{
		o: o, spec: spec, trials: spec.Trials * len(spec.Scenarios), hot: hot, traced: traced,
		hotFraction: hotFraction, cacheBytes: svcCacheBytes,
		mix: stats.NewRNG(o.seed), bySeed: map[int64][]byte{},
	}, nil
}

// mixJob is one job of the mix.
type mixJob struct {
	seed   int64
	report bool
	// phase delays the job's first status poll by a fraction of the poll
	// period: a client polls on its own clock, not in step with its
	// submit, so detection delay is spread evenly over the period rather
	// than rounding every job up to the same poll tick.
	phase float64
}

// nextJob draws the next job of the mix: the hot seed with probability
// hotFraction (a fleet cache hit), else a fresh seed (a miss); every
// reportEvery-th job also fetches its report.
func (s *session) nextJob() mixJob {
	s.mixMu.Lock()
	defer s.mixMu.Unlock()
	s.mixN++
	j := mixJob{seed: s.hot, report: s.mixN%reportEvery == 0, phase: s.mix.Float64()}
	if s.mix.Float64() < s.hotFraction {
		return j
	}
	for {
		if v := s.mix.Int63(); v != 0 && v != s.hot {
			j.seed = v
			return j
		}
	}
}

// body renders the job spec for one seed.
func (s *session) body(seed int64) ([]byte, error) {
	spec := *s.spec
	spec.Seed = seed
	return json.Marshal(&spec)
}

// svcMeasure is what one session measured.
type svcMeasure struct {
	setup          float64
	trialsPerS     float64
	closedJobsPerS float64
	jobLat         []float64 // open loop, ms from due to /result
	httpLat        []float64 // open loop, ms per request
	genLag         []float64 // open loop, ms each job was submitted after it was due
	queueWait      []float64 // traced: ms from submit to the job's first trial
	cache          sweepd.CacheStats
	liveHeap       float64 // mean MiB over both phases
}

// plan is a session's schedule: setups fresh servers each filled by one
// warm-up job, a closed loop of closedClients clients for closed, then
// openJobs jobs offered at openRate per second.
type plan struct {
	setups   int
	closed   time.Duration
	openJobs int
	openRate float64
}

// svcPlan is the svc workload's schedule for a run of seconds.
func svcPlan(seconds float64) plan {
	open := seconds * (1 - closedShare)
	return plan{
		setups:   setupRuns,
		closed:   time.Duration(seconds * closedShare * float64(time.Second)),
		openJobs: max(minJobs, int(open*openRatePerSec)),
		openRate: openRatePerSec,
	}
}

// measure runs a plan, then stops the server.
func (s *session) measure(p plan) (*svcMeasure, error) {
	defer s.close()
	m := &svcMeasure{}
	for i := 0; i < p.setups; i++ {
		if err := s.close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv, err := startServer(filepath.Join(s.o.work, fmt.Sprintf("sweepd-%d", i)), s.cacheBytes, s.traced)
		if err != nil {
			return nil, err
		}
		s.srv, s.c = srv, newClient(srv.url)
		if _, err := s.job(mixJob{seed: s.hot}); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
	}
	m.setup = median(s.setups)

	stopDash := s.dashboard()
	defer stopDash()
	live := startLiveHeap()

	var wg sync.WaitGroup
	if p.closed > 0 {
		aStart := time.Now()
		aEnd := aStart.Add(p.closed)
		var doneA int
		var muA sync.Mutex
		for k := 0; k < closedClients; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(aEnd) {
					if _, err := s.job(s.nextJob()); err == nil {
						muA.Lock()
						doneA++
						muA.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		aSecs := time.Since(aStart).Seconds()
		m.closedJobsPerS = float64(doneA) / aSecs
		m.trialsPerS = float64(doneA*s.trials) / aSecs
	}

	// Open loop at a fixed rate; latency counts from the due time.
	reqBefore := s.c.requestCount()
	var muB sync.Mutex
	bStart := time.Now()
	for i := 0; i < p.openJobs; i++ {
		due := bStart.Add(time.Duration(float64(i) / p.openRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		m.genLag = append(m.genLag, ms(time.Since(due)))
		j := s.nextJob()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if at, err := s.job(j); err == nil {
				muB.Lock()
				m.jobLat = append(m.jobLat, ms(at.Sub(due)))
				muB.Unlock()
			}
		}()
	}
	wg.Wait()
	m.liveHeap = live.stop()
	m.httpLat = s.c.latenciesSince(reqBefore)
	if len(m.jobLat) == 0 {
		return nil, errors.New("no open-loop job completed")
	}
	m.cache = s.srv.srv.CacheStats()
	m.queueWait = s.queueWaits()
	return m, nil
}

// queueWaits pairs each job's submit time with its first trial attempt
// (recorded through sweepd's JobHooks on traced servers).
func (s *session) queueWaits() []float64 {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	s.srv.mu.Lock()
	defer s.srv.mu.Unlock()
	var out []float64
	for id, sent := range s.c.submitted {
		if first, ok := s.srv.first[id]; ok {
			out = append(out, ms(first.Sub(sent)))
		}
	}
	return out
}

// job runs one job through the client and records its outcome. It
// returns when the result bytes arrived.
func (s *session) job(j mixJob) (time.Time, error) {
	body, err := s.body(j.seed)
	if err != nil {
		return time.Time{}, err
	}
	res, at, err := s.c.runJob(body, j.report, j.phase)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs++
	if err != nil {
		s.failedJobs++
		fmt.Fprintf(stderr, "svc: job failed: %v\n", err)
		return at, err
	}
	if prev, ok := s.bySeed[j.seed]; !ok {
		s.bySeed[j.seed] = res
		s.seedOrder = append(s.seedOrder, j.seed)
	} else if !bytes.Equal(prev, res) {
		s.mismatch++
	}
	return at, nil
}

// dashboard polls the job list every dashboardEvery until stopped.
func (s *session) dashboard() (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := time.Now()
		for {
			s.c.do("list", http.MethodGet, "/v1/jobs", nil, http.StatusOK)
			next = next.Add(dashboardEvery)
			select {
			case <-quit:
				return
			case <-time.After(time.Until(next)):
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// verifyDistinct is how many distinct job specs verify recomputes with
// a direct sweep.Execute.
const verifyDistinct = 4

// verify checks the session's correctness record, outside the timed
// window: no job failed, same-spec jobs agreed byte for byte, and the
// first verifyDistinct specs served equal a direct engine run of the
// same spec under sweepd's default base.
func (s *session) verify() bool {
	ok := s.failedJobs == 0 && s.c.failures == 0
	if s.mismatch > 0 {
		fmt.Fprintf(stderr, "svc: %d jobs returned bytes that differ from an earlier job with the same spec\n", s.mismatch)
		ok = false
	}
	for i, seed := range s.seedOrder {
		if i == verifyDistinct {
			break
		}
		body, err := s.body(seed)
		if err == nil {
			var want []byte
			want, err = directBytes(body)
			if err == nil && !bytes.Equal(want, s.bySeed[seed]) {
				err = errors.New("served /result differs from a direct sweep.Execute")
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "svc: seed %d: %v\n", seed, err)
			ok = false
		}
	}
	return ok
}

// directBytes runs a job spec through sweep.Execute the way
// `sweep -grid-file spec -json` does under sweepd's default base.
func directBytes(body []byte) ([]byte, error) {
	spec, err := scenario.Parse(body, "job spec")
	if err != nil {
		return nil, err
	}
	cfg := spec.Config(sweepd.DefaultBase())
	cfg.Workers = sweepWorkers
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	return resultBytes(res)
}

// close stops the session's current server, if any.
func (s *session) close() error {
	if s.srv == nil {
		return nil
	}
	s.c.closeIdle()
	err := s.srv.close()
	s.srv = nil
	return err
}

// svcServer is an in-process sweepd on a loopback listener.
type svcServer struct {
	srv    *sweepd.Server
	hs     *http.Server
	url    string
	served chan error

	mu    sync.Mutex
	first map[string]time.Time // job ID → first trial attempt (traced runs)
}

func startServer(dir string, cacheBytes int64, traced bool) (*svcServer, error) {
	s := &svcServer{served: make(chan error, 1), first: map[string]time.Time{}}
	cfg := sweepd.Config{Dir: dir, Pool: svcPool, JobWorkers: svcJobWorkers, CheckpointEvery: svcCheckpointEvery, CacheBytes: cacheBytes}
	if traced {
		cfg.JobHooks = func(id string) *sweep.Hooks {
			return &sweep.Hooks{BeforeTrialAttempt: func(string, int, int) { s.started(id) }}
		}
	}
	srv, err := sweepd.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	s.srv = srv
	s.hs = &http.Server{Handler: srv.Handler()}
	s.url = "http://" + ln.Addr().String()
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *svcServer) started(id string) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.first[id]; !ok {
		s.first[id] = now
	}
}

// close stops the listener, waits for Serve to return, and drains the
// job pool.
func (s *svcServer) close() error {
	err := s.hs.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Drain()
	return err
}

// client is the load generator's HTTP side: at most maxConns
// connections, every request timed by route.
type client struct {
	base string
	hc   *http.Client

	mu        sync.Mutex
	reqs      []request
	submitted map[string]time.Time // job ID → submit sent
	requests  int
	failures  int
}

type request struct {
	route string
	ms    float64
}

func newClient(base string) *client {
	tr := &http.Transport{Proxy: nil, MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}, submitted: map[string]time.Time{}}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// do sends one request and records its latency under route; a transport
// error or an unexpected status counts as a failed request.
func (c *client) do(route, method, path string, body []byte, want int) ([]byte, error) {
	t0 := time.Now()
	data, err := c.send(method, path, body, want)
	d := ms(time.Since(t0))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	if err != nil {
		c.failures++
		return nil, err
	}
	c.reqs = append(c.reqs, request{route, d})
	return data, nil
}

func (c *client) send(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *client) requestCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.reqs)
}

// latenciesSince returns every request latency recorded after the
// first n.
func (c *client) latenciesSince(n int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, 0, len(c.reqs)-n)
	for _, r := range c.reqs[n:] {
		out = append(out, r.ms)
	}
	return out
}

// routeLatencies returns every recorded latency of one route.
func (c *client) routeLatencies(route string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []float64
	for _, r := range c.reqs {
		if r.route == route {
			out = append(out, r.ms)
		}
	}
	return out
}

// jobStatus is the subset of sweepd's status document the client reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// runJob submits a spec, polls its status every pollEvery (the first poll
// phase periods after the submit) until it is done, fetches /result
// (and /report when asked), and returns the result bytes with the time
// they arrived.
func (c *client) runJob(body []byte, report bool, phase float64) ([]byte, time.Time, error) {
	sent := time.Now()
	data, err := c.do("submit", http.MethodPost, "/v1/jobs", body, http.StatusCreated)
	if err != nil {
		return nil, time.Now(), err
	}
	var st jobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, time.Now(), fmt.Errorf("decoding submit response: %w", err)
	}
	c.mu.Lock()
	c.submitted[st.ID] = sent
	c.mu.Unlock()
	next := time.Now().Add(time.Duration(phase*float64(pollEvery)) - pollEvery)
	for st.State != "done" {
		if st.State != "queued" && st.State != "running" {
			return nil, time.Now(), fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		next = next.Add(pollEvery)
		if now := time.Now(); next.Before(now) {
			next = now
		}
		time.Sleep(time.Until(next))
		if data, err = c.do("status", http.MethodGet, "/v1/jobs/"+st.ID, nil, http.StatusOK); err != nil {
			return nil, time.Now(), err
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, time.Now(), fmt.Errorf("decoding status: %w", err)
		}
	}
	res, err := c.do("result", http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK)
	at := time.Now()
	if err != nil {
		return nil, at, err
	}
	if report {
		if _, err := c.do("report", http.MethodGet, "/v1/jobs/"+st.ID+"/report", nil, http.StatusOK); err != nil {
			return nil, at, err
		}
	}
	return res, at, nil
}
