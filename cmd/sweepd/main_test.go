package main

// Tests for the extracted run(): flag validation exit codes and
// messages, usage output, the HTTP server's connection timeouts, and a
// live server driven over real HTTP through a real SIGTERM — the
// binary-level half of the control plane's graceful-shutdown contract
// (the server-level half lives in internal/sweepd).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"storagesubsys/internal/sweep"
)

// lockedBuffer is a concurrency-safe stderr sink: run() writes from
// the serving goroutine while the test polls for the listen line.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"missing-dir", []string{}, 2, "-dir is required"},
		{"unknown-flag", []string{"-dir", "x", "-bogus"}, 2, "flag provided but not defined"},
		{"positional-arg", []string{"-dir", "x", "serve"}, 2, `unexpected argument "serve"`},
		{"bad-pool", []string{"-dir", "x", "-pool", "0"}, 2, "-pool must be at least 1"},
		{"bad-cadence", []string{"-dir", "x", "-checkpoint-every", "-1"}, 2, "-checkpoint-every must be >= 0"},
		{"help", []string{"-h"}, 0, "Usage of sweepd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			code := run(tc.args, io.Discard, &stderr)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

// TestHTTPServerTimeouts: the server run() listens with must bound how
// long a client may take over its request headers and how long an idle
// keep-alive connection lives, so a stalled client cannot hold a
// connection forever.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.Handler == nil {
		t.Error("server has no handler")
	}
}

// TestUsageListsEveryFlag keeps the doc comment honest: every flag
// registered in run() must be mentioned in the package comment. The
// registrations are scraped from the source, so adding a flag without
// documenting it fails here.
func TestUsageListsEveryFlag(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatalf("reading main.go: %v", err)
	}
	doc, _, ok := strings.Cut(string(src), "package main")
	if !ok {
		t.Fatal("main.go has no package clause")
	}
	re := regexp.MustCompile(`fs\.(?:String|Int|Int64|Bool|Float64|Duration)\("([^"]+)"`)
	matches := re.FindAllStringSubmatch(string(src), -1)
	if len(matches) < 6 {
		t.Fatalf("scraped only %d flag registrations from main.go; the pattern is stale", len(matches))
	}
	for _, m := range matches {
		if !strings.Contains(doc, "-"+m[1]) {
			t.Errorf("flag -%s is not documented in the package comment", m[1])
		}
	}
}

// TestRunServesAndDrainsOnSIGTERM boots a real server on an ephemeral
// port, runs one pinned-size job over HTTP, byte-compares its result
// against a direct engine run, then delivers SIGTERM to the process
// and requires a clean exit 0 with the drain message.
func TestRunServesAndDrainsOnSIGTERM(t *testing.T) {
	dir := t.TempDir()
	stderr := &lockedBuffer{}
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{"-dir", dir, "-listen", "127.0.0.1:0", "-pool", "1"}, io.Discard, stderr)
	}()

	base := ""
	for i := 0; i < 5000 && base == ""; i++ {
		if out := stderr.String(); strings.Contains(out, "listening on ") {
			line := out[strings.Index(out, "listening on ")+len("listening on "):]
			base = strings.TrimSpace(strings.Fields(line)[0])
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if base == "" {
		t.Fatalf("server never announced its listen address; stderr: %q", stderr.String())
	}

	// A fully pinned spec: byte-identity must not depend on the
	// server's base defaults.
	spec := `{"name": "cli-smoke", "trials": 2, "scale": 0.004, "seed": 42, "scenarios": [{"name": "baseline"}]}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var js struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	var result []byte
	for i := 0; i < 15000; i++ {
		r, err := http.Get(base + "/v1/jobs/" + js.ID + "/result")
		if err != nil {
			t.Fatalf("GET result: %v", err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			result = body
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if result == nil {
		t.Fatal("job never completed")
	}
	// GridDigest never affects computed bytes, so the direct run can
	// omit it.
	cfg := sweep.Config{Trials: 2, Seed: 42, Scale: 0.004, Workers: 3,
		Scenarios: []sweep.Scenario{{Name: "baseline"}}}
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatalf("direct Execute: %v", err)
	}
	var want bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatalf("encoding direct result: %v", err)
	}
	if !bytes.Equal(result, want.Bytes()) {
		t.Fatal("served result bytes differ from the direct engine run")
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("delivering SIGTERM: %v", err)
	}
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("run exited %d after SIGTERM; stderr: %q", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not exit after SIGTERM; stderr: %q", stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "draining") || !strings.Contains(out, "drained") {
		t.Fatalf("drain messages missing from stderr: %q", out)
	}
}
