package sweepd

// End-to-end tests over the real HTTP surface: an httptest server
// wrapping a Server, driven with the same committed scenario files CI
// sweeps directly. The central assertion everywhere: the control plane
// adds scheduling and transport, never arithmetic — /result bytes are
// identical to a direct sweep.Execute of the same spec at a different
// worker count, and partial status responses are monotone.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

// tinyBase is the test servers' base run config: small enough that a
// job is fast, structured exactly like DefaultBase so committed specs
// that inherit trials/scale stay cheap while specs that pin their own
// run their pinned (still modest) sizes.
func tinyBase() sweep.Config {
	return sweep.Config{Trials: 4, Seed: 42, Scale: 0.004}
}

// testServer couples a Server with its httptest front end and a
// per-job monotonicity tracker for TrialsDone assertions across polls.
type testServer struct {
	*Server
	http *httptest.Server
	mono map[string]map[string]int // job ID -> scenario -> last TrialsDone
}

// startServer builds a Server over dir with test-sized defaults,
// mounts it on httptest, and registers cleanup (drain, then close).
func startServer(t *testing.T, dir string, mut func(*Config)) *testServer {
	t.Helper()
	cfg := Config{
		Dir: dir, Pool: 2, JobWorkers: 2, CheckpointEvery: 1,
		Base: tinyBase(), Logf: t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := &testServer{Server: s, http: httptest.NewServer(s.Handler()), mono: map[string]map[string]int{}}
	t.Cleanup(func() {
		ts.Drain()
		ts.http.Close()
	})
	return ts
}

// do performs one request and returns status code and body.
func (ts *testServer) do(t *testing.T, method, path string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.http.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	resp, err := ts.http.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, path, err)
	}
	return resp.StatusCode, data
}

// submit POSTs a scenario file and decodes the 201 response.
func (ts *testServer) submit(t *testing.T, spec []byte) JobStatus {
	t.Helper()
	code, body := ts.do(t, http.MethodPost, "/v1/jobs", spec)
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/jobs: status %d, body %q", code, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return js
}

// getStatus polls one job and enforces the streaming contract: per
// scenario, TrialsDone never decreases across successive polls.
func (ts *testServer) getStatus(t *testing.T, id string) JobStatus {
	t.Helper()
	code, body := ts.do(t, http.MethodGet, "/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d, body %q", id, code, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	seen := ts.mono[id]
	if seen == nil {
		seen = map[string]int{}
		ts.mono[id] = seen
	}
	for _, sc := range js.Scenarios {
		if sc.TrialsDone < seen[sc.Name] {
			t.Fatalf("job %s scenario %q TrialsDone regressed %d -> %d",
				id, sc.Name, seen[sc.Name], sc.TrialsDone)
		}
		seen[sc.Name] = sc.TrialsDone
	}
	return js
}

// waitState polls until the job reaches one of the wanted states,
// failing the test if it lands in a different terminal state first.
func (ts *testServer) waitState(t *testing.T, id string, want ...JobState) JobStatus {
	t.Helper()
	for i := 0; i < 60000; i++ {
		js := ts.getStatus(t, id)
		for _, w := range want {
			if js.State == w {
				return js
			}
		}
		if js.State.terminal() {
			t.Fatalf("job %s reached terminal state %s (error %q); wanted one of %v", id, js.State, js.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %v in time", id, want)
	return JobStatus{}
}

// resultOf fetches the final /result bytes of a done job.
func (ts *testServer) resultOf(t *testing.T, id string) []byte {
	t.Helper()
	code, body := ts.do(t, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s/result: status %d, body %q", id, code, body)
	}
	return body
}

// mustParse parses an inline scenario file.
func mustParse(t *testing.T, spec string) *scenario.Spec {
	t.Helper()
	s, err := scenario.Parse([]byte(spec), "inline spec")
	if err != nil {
		t.Fatalf("parsing inline spec: %v", err)
	}
	return s
}

// directRun executes a spec outside the server at a chosen worker
// count and returns the canonical result bytes.
func directRun(t *testing.T, raw []byte, base sweep.Config, workers int) []byte {
	t.Helper()
	spec, err := scenario.Parse(raw, "request body")
	if err != nil {
		t.Fatalf("parsing spec for direct run: %v", err)
	}
	cfg := spec.Config(base)
	cfg.Workers = workers
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatalf("direct Execute: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("encoding direct result: %v", err)
	}
	return buf.Bytes()
}

// committedSpecs returns every scenario file shipped under
// examples/scenarios.
func committedSpecs(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed scenario files found: %v", err)
	}
	return paths
}

// TestEndToEndCommittedSpecs is the tentpole e2e: every committed
// scenario file is submitted over HTTP, polled to completion under the
// monotone-TrialsDone contract, and its /result bytes must equal a
// direct sweep.Execute of the same spec at a different worker count.
// In -short mode only the cheap inheriting specs run (the pinned-size
// ones — repair-lag-stress, variance — carry their own trial counts).
func TestEndToEndCommittedSpecs(t *testing.T) {
	ts := startServer(t, t.TempDir(), nil)
	for _, path := range committedSpecs(t) {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading %s: %v", path, err)
			}
			var peek struct {
				Trials int `json:"trials"`
			}
			json.Unmarshal(raw, &peek)
			if testing.Short() && peek.Trials > 0 {
				t.Skipf("%s pins its own trial count (%d); skipped in -short", name, peek.Trials)
			}
			js := ts.submit(t, raw)
			if js.State != StateQueued && js.State != StateRunning {
				t.Fatalf("submitted job state %s", js.State)
			}
			final := ts.waitState(t, js.ID, StateDone)
			if final.TrialsDone != final.TrialsTotal {
				t.Fatalf("done job reports %d/%d trials", final.TrialsDone, final.TrialsTotal)
			}
			got := ts.resultOf(t, js.ID)
			want := directRun(t, raw, tinyBase(), 3) // server ran with 2 workers
			if !bytes.Equal(got, want) {
				t.Fatalf("/result bytes differ from direct sweep.Execute for %s", name)
			}
		})
	}
}

// TestSubmitRejectsInvalidSpecs pins the validation contract: the
// server rejects a payload with exactly the positional error
// cmd/sweep's parser produces for the same bytes.
func TestSubmitRejectsInvalidSpecs(t *testing.T) {
	ts := startServer(t, t.TempDir(), nil)
	cases := []struct {
		name string
		body string
	}{
		{"syntax", `{"name": "x", "scenarios": [`},
		{"unknown-field", `{"name": "x", "bogus": 1, "scenarios": [{"name": "baseline"}]}`},
		{"no-scenarios", `{"name": "x", "scenarios": []}`},
		{"bad-override", `{"name": "x", "scenarios": [{"name": "b", "diskAFRMult": -2}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := ts.do(t, http.MethodPost, "/v1/jobs", []byte(tc.body))
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %q)", code, body)
			}
			_, perr := scenario.Parse([]byte(tc.body), "request body")
			if perr == nil {
				t.Fatal("test case unexpectedly parses")
			}
			if got, want := string(body), perr.Error()+"\n"; got != want {
				t.Fatalf("error body %q differs from cmd/sweep's parser error %q", got, want)
			}
		})
	}
	// Nothing was admitted.
	code, body := ts.do(t, http.MethodGet, "/v1/jobs", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"jobs": []`) && !strings.Contains(string(body), `"jobs":[]`) {
		t.Fatalf("job list after rejected submissions: status %d body %q", code, body)
	}
}

// TestSubmitRejectsPostMergeViolations covers validation that only
// triggers once the spec combines with the server's base config —
// mirroring cmd/sweep's post-merge checks with the same message shape.
// A spec naming a removed variance mode is refused at parse time, at
// the top level as an unknown field and per scenario positionally.
func TestSubmitRejectsPostMergeViolations(t *testing.T) {
	wide := tinyBase()
	wide.Scale = 2
	ts := startServer(t, t.TempDir(), func(c *Config) { c.Base = wide })
	for _, tc := range []struct{ spec, want string }{
		{`{"name": "x", "scenarios": [{"name": "baseline"}]}`,
			"sweepd: base scale 2 must be in (0, 1.5] (scenario file and base config combined)\n"},
		{`{"name": "x", "variance": "antithetic", "scenarios": [{"name": "baseline"}]}`,
			"scenario: request body: unknown field \"variance\" (every spec field is documented in SCENARIOS.md)\n"},
		{`{"name": "x", "scenarios": [{"name": "baseline", "variance": "antithetic"}]}`,
			"scenario: request body: scenarios[0] \"baseline\": \"variance\" is \"antithetic\", but the antithetic and stratified modes were removed (neither cut a sweep metric's variance by 1.5×); only \"none\" remains, so drop the key\n"},
	} {
		code, body := ts.do(t, http.MethodPost, "/v1/jobs", []byte(tc.spec))
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %q)", tc.spec, code, body)
		}
		if string(body) != tc.want {
			t.Fatalf("%s: error body %q, want %q", tc.spec, body, tc.want)
		}
	}
}

// TestEndpointEdges covers the non-happy paths of the read endpoints:
// unknown IDs, results demanded before completion, double cancels.
func TestEndpointEdges(t *testing.T) {
	ts := startServer(t, t.TempDir(), nil)
	if code, _ := ts.do(t, http.MethodGet, "/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job status: %d, want 404", code)
	}
	if code, _ := ts.do(t, http.MethodGet, "/v1/jobs/job-999999/result", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job result: %d, want 404", code)
	}

	js := ts.submit(t, []byte(`{"name": "edge", "scenarios": [{"name": "baseline"}]}`))
	done := ts.waitState(t, js.ID, StateDone)
	if code, body := ts.do(t, http.MethodDelete, "/v1/jobs/"+js.ID, nil); code != http.StatusConflict {
		t.Fatalf("cancelling a done job: %d body %q, want 409", code, body)
	}
	if done.Digest == "" || done.Trials != tinyBase().Trials {
		t.Fatalf("done status misreports run parameters: %+v", done)
	}

	code, body := ts.do(t, http.MethodGet, "/v1/jobs/"+js.ID+"/report", nil)
	if code != http.StatusOK || !strings.Contains(string(body), "baseline") {
		t.Fatalf("report: status %d body %.120q", code, body)
	}

	code, body = ts.do(t, http.MethodGet, "/v1/healthz", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: status %d body %q", code, body)
	}
}

// TestListOrdersBySubmission pins listing order and the ID sequence.
func TestListOrdersBySubmission(t *testing.T) {
	ts := startServer(t, t.TempDir(), nil)
	var ids []string
	for i := 0; i < 3; i++ {
		spec := fmt.Sprintf(`{"name": "list-%d", "scenarios": [{"name": "baseline"}]}`, i)
		ids = append(ids, ts.submit(t, []byte(spec)).ID)
	}
	if ids[0] != "job-000001" || ids[1] != "job-000002" || ids[2] != "job-000003" {
		t.Fatalf("IDs not sequential: %v", ids)
	}
	_, body := ts.do(t, http.MethodGet, "/v1/jobs", nil)
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list.Jobs))
	}
	for i, js := range list.Jobs {
		if js.ID != ids[i] {
			t.Fatalf("list position %d is %s, want %s (submission order)", i, js.ID, ids[i])
		}
		if len(js.Scenarios) != 0 {
			t.Fatal("listing should elide scenario detail")
		}
	}
	for _, id := range ids {
		ts.waitState(t, id, StateDone)
	}
}

// TestDoneJobsRetainLittleHeap bounds what a finished job keeps in
// memory: its derived status, spec and identity, not its checkpoint
// state, decoded result or result bytes, all of which stay on disk.
// 100 done jobs may retain at most 8 KiB each.
func TestDoneJobsRetainLittleHeap(t *testing.T) {
	const jobs, perJob = 100, 8 << 10
	ts := startServer(t, t.TempDir(), func(c *Config) {
		c.JobWorkers, c.CheckpointEvery, c.Logf = 1, 0, nil
	})
	spec := []byte(recoverySpec)
	// wait polls like waitState, but without its per-job monotonicity
	// map, which would count as retained heap.
	wait := func(id string) {
		for {
			code, body := ts.do(t, http.MethodGet, "/v1/jobs/"+id, nil)
			var js JobStatus
			if err := json.Unmarshal(body, &js); code != http.StatusOK || err != nil {
				t.Fatalf("GET %s: status %d, %v", id, code, err)
			}
			if js.State == StateDone {
				return
			}
			if js.State.terminal() {
				t.Fatalf("%s ended %s: %s", id, js.State, js.Error)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm-up: the first job builds the shared fleet into the cache.
	wait(ts.submit(t, spec).ID)
	ts.resultOf(t, "job-000001")
	before := heap()
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = ts.submit(t, spec).ID
	}
	for _, id := range ids {
		wait(id)
		ts.resultOf(t, id)
	}
	after := heap()
	t.Logf("%d done jobs: heap %d -> %d bytes", jobs, before, after)
	if after > before && (after-before)/jobs > perJob {
		t.Fatalf("%d done jobs retain %d bytes each (heap %d -> %d), budget %d", jobs, (after-before)/jobs, before, after, perJob)
	}
}
