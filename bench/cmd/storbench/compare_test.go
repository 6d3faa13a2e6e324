package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 10, 7}, [3]float64{1.5, 5, 9.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "job_p50_ms", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"faster everywhere", lower, base, scaled(0.8), "improved"},
		{"same", lower, base, base, "within bound"},
		{"slightly slower", lower, base, scaled(1.05), "within bound"},
		{"much slower", lower, base, scaled(1.2), "regressed"},
		{"noisy parent", lower, []float64{50, 150, 60, 140, 100, 100, 55, 145, 100, 100}, scaled(1.05), "unresolved"},
		{"higher is better", metricDef{Name: "trials_per_s", Better: "higher", Bound: 0.10}, base, scaled(0.85), "regressed"},
		{"per-layer worse", metricDef{Name: "sim.simulate_ms", Better: "lower"}, base, scaled(1.3), "worse"},
		{"per-layer unchanged", metricDef{Name: "sim.simulate_ms", Better: "lower"}, base, base, "no change shown"},
	}
	for _, c := range cases {
		if got := compareMetric(c.def, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v float64) string {
		set := runSet{Runs: map[string][]*runResult{}}
		for i := 0; i < 5; i++ {
			m := map[string]value{}
			for _, d := range endToEnd {
				m[d.Name] = value{Value: v + float64(i)/100, Unit: d.Unit}
			}
			set.Runs[wOps] = append(set.Runs[wOps], &runResult{Correct: true, Attempted: 1, Metrics: m})
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", 10), write("b.json", 10)
	var out bytes.Buffer
	if code := run([]string{"compare", a, b}, &out); code != 0 {
		t.Fatalf("compare exited %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+len(endToEnd) {
		t.Fatalf("compare printed %d lines, want a header and one row per end-to-end metric:\n%s", len(lines), out.String())
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, wOps) || !strings.HasSuffix(l, "within bound") {
			t.Errorf("row %q: want workload %s and verdict within bound", l, wOps)
		}
	}
}
