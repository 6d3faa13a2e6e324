package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// benchmarkJSON is BENCHMARK.json at the repository root: the
// benchmark's contract with whoever runs it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json keys %v, want exactly %v", got, want)
	}
	b := &benchmarkJSON{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSON lints BENCHMARK.json and checks it agrees with the
// metric and workload tables the harness reports from.
func TestBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	path := regexp.MustCompile(`^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$`)

	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %q", b.Command)
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths, want 1-16", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !path.MatchString(p) {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1-60", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}

	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	workloadSet := map[string]bool{}
	for i, w := range b.Workloads {
		checkName(w.Name)
		workloadSet[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
		if i < len(workloads) && workloads[i].Name != w.Name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the harness", i, w.Name, workloads[i].Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}

	e2e := map[string]bool{}
	setup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		e2e[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
		if i >= len(endToEnd) || endToEnd[i].Name != m.Name || endToEnd[i].Unit != m.Unit ||
			endToEnd[i].Better != m.Better || endToEnd[i].Bound != m.Bound {
			t.Errorf("end-to-end metric %d (%s) differs from the harness table", i, m.Name)
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}

	targets, layer := map[string]bool{}, map[string]bool{}
	for _, d := range perLayer {
		targets[d.Moves], layer[d.Name] = true, true
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if i >= len(perLayer) {
			continue
		}
		d := perLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d (%s) differs from the harness table (%s)", i, m.Name, d.Name)
		}
		// A job-level metric names no target, but layer metrics name it.
		if d.Moves == "" {
			if !targets[d.Name] || len(d.On) > 0 {
				t.Errorf("per-layer %s names no target and no layer metric targets it", d.Name)
			}
			continue
		}
		// Every layer metric names, in advance, the job-level or end-to-end
		// metric and the workloads it should move.
		if d.Moves == d.Name || (!e2e[d.Moves] && !layer[d.Moves]) {
			t.Errorf("per-layer %s targets %q, not another declared metric", d.Name, d.Moves)
		}
		if len(d.On) == 0 {
			t.Errorf("per-layer %s names no workload it should move", d.Name)
		}
		for _, w := range d.On {
			if !workloadSet[w] {
				t.Errorf("per-layer %s targets workload %q, not in BENCHMARK.json", d.Name, w)
			}
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
}
