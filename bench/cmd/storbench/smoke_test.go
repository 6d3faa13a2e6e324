package main

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at smoke size, untraced and traced, and
// requires each run to pass its correctness checks and report exactly
// the metrics the benchmark declares, with their units. -short skips the
// traced runs.
func TestSmoke(t *testing.T) {
	old := stderr
	stderr = io.Discard
	defer func() { stderr = old }()
	traces := []string{"0", "1"}
	if testing.Short() {
		traces = traces[:1]
	}
	for _, tr := range traces {
		defs := endToEnd
		if tr == "1" {
			defs = perLayer
		}
		for _, w := range workloads {
			seconds := "0.5"
			if w.Name == wSvc {
				seconds = "2"
			}
			t.Run(w.Name+"/trace"+tr, func(t *testing.T) {
				work := t.TempDir()
				var out bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "7", "-seconds", seconds, "-trace", tr, "-smoke",
					"-workloads", filepath.Join("..", "..", "workloads"), "-work", work}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit %d", code)
				}
				res, err := lastResult(out.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("metric %s: %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
					}
				}
			})
		}
	}
}
