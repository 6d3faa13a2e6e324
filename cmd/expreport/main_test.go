package main

// Tests for the extracted run(): flag-validation exit codes (expreport
// keeps its long-standing "fatal is always 1" convention for semantic
// errors; only flag-parse failures exit 2), the strict -in loader, a
// tiny -in roundtrip rendering a real report, and usage staleness.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"storagesubsys/internal/scenario"
	"storagesubsys/internal/sweep"
)

func TestRunFlagValidation(t *testing.T) {
	builtins := strings.Join(scenario.BuiltinNames(), ", ")
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"bad-trials", []string{"-trials", "0"}, 1, "expreport: -trials must be at least 1"},
		{"bad-scale", []string{"-scale", "2"}, 1, "expreport: -scale must be in (0, 1.5]"},
		{"positional-arg", []string{"render"}, 1, `expreport: unexpected argument "render" (expreport takes flags only; see -h)`},
		{"grid-conflict", []string{"-grid", "ops", "-grid-file", "x.json"}, 1, "expreport: -grid and -grid-file are mutually exclusive (one grid per sweep)"},
		{"in-conflicts-trials", []string{"-in", "r.json", "-trials", "4"}, 1, "expreport: -trials conflicts with -in: the report renders the configuration recorded in r.json"},
		{"in-conflicts-workers", []string{"-in", "r.json", "-workers", "2"}, 1, "expreport: -workers conflicts with -in"},
		{"in-missing-file", []string{"-in", "no-such-result.json"}, 1, "no-such-result.json"},
		{"missing-grid-file", []string{"-grid-file", "no-such-spec.json"}, 1, "no-such-spec.json"},
		{"grid-file-name", []string{"-grid", "x.json"}, 1, `expreport: scenario: unknown grid "x.json" (built-in grids: ` + builtins + "; load any other scenario file with -grid-file)"},
		{"grid-path", []string{"-grid", "../x"}, 1, `expreport: scenario: unknown grid "../x" (built-in grids: ` + builtins + "; load any other scenario file with -grid-file)"},
		{"antithetic-odd-trials", []string{"-grid-file", filepath.Join("..", "..", "examples", "scenarios", "variance.json"), "-trials", "3"}, 1,
			`expreport: antithetic pairing needs an even trial count, got 3 (scenario "repair-lag-x4" resolves to variance antithetic)`},
		{"unknown-flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "Usage of expreport"},
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

// TestLoadResultRejectsDamage pins the strict-parse contract: unknown
// fields, trailing documents, and structurally empty results are all
// one-line errors, never silent zero-value reports.
func TestLoadResultRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	writeTemp := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name    string
		content string
		want    string
	}{
		{"not-json", `not json at all`, "is it a cmd/sweep -json result?"},
		{"unknown-field", `{"bogus_field": 1}`, "is it a cmd/sweep -json result?"},
		{"trailing-data", `{"trials": 2, "scenarios": [{"scenario": {"name": "baseline"}}]} {"again": true}`, "trailing data after the result object"},
		{"empty-result", `{}`, "holds no sweep data (0 trials, 0 scenarios)"},
		{"nameless-scenario", `{"trials": 2, "scenarios": [{"scenario": {"name": ""}}]}`, "has a scenario without a name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTemp(tc.name+".json", tc.content)
			_, err := loadResult(path)
			if err == nil {
				t.Fatalf("loadResult(%s) accepted damaged input", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err.Error(), tc.want)
			}
		})
	}
}

// TestRunInRoundtrip sweeps a tiny configuration directly, writes the
// result with -json semantics, and renders it through run(-in): exit 0
// and a report that names the swept scenario. This is the
// no-recomputation path big sweeps rely on.
func TestRunInRoundtrip(t *testing.T) {
	smoke, err := scenario.Builtin("smoke")
	if err != nil {
		t.Fatalf("Builtin(smoke): %v", err)
	}
	cfg := sweep.Config{Trials: 2, Seed: 42, Scale: 0.004, Scenarios: smoke.Scenarios}
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-in %s) = %d, want 0 (stderr %q)", path, code, stderr.String())
	}
	report := stdout.String()
	if !strings.Contains(report, "baseline") {
		t.Fatalf("report does not mention the swept scenario; got %d bytes starting %q", len(report), firstLine(report))
	}

	// -o writes the same bytes to a file instead of stdout.
	outPath := filepath.Join(t.TempDir(), "report.md")
	var stderr2 bytes.Buffer
	if code := run([]string{"-in", path, "-o", outPath}, io.Discard, &stderr2); code != 0 {
		t.Fatalf("run(-in -o) = %d, want 0 (stderr %q)", code, stderr2.String())
	}
	written, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("reading -o output: %v", err)
	}
	if !bytes.Equal(written, stdout.Bytes()) {
		t.Fatal("-o file bytes differ from the stdout render of the same result")
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestUsageListsEveryFlag scrapes the flag registrations out of main.go
// and requires each to be mentioned in the package doc comment.
func TestUsageListsEveryFlag(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatalf("reading main.go: %v", err)
	}
	doc, _, ok := strings.Cut(string(src), "package main")
	if !ok {
		t.Fatal("main.go has no package clause")
	}
	re := regexp.MustCompile(`flags\.(?:String|Int|Int64|Bool|Float64|Duration)\("([^"]+)"`)
	matches := re.FindAllStringSubmatch(string(src), -1)
	if len(matches) < 8 {
		t.Fatalf("scraped only %d flag registrations from main.go; the pattern is stale", len(matches))
	}
	for _, m := range matches {
		if !strings.Contains(doc, "-"+m[1]) {
			t.Errorf("flag -%s is not documented in the package comment", m[1])
		}
	}
}
