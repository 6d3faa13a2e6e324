package main

// Tests for the extracted run(): table-driven flag validation pinning
// exact messages and exit codes, the validate subcommand's 0/1/2
// contract, usage staleness, one tiny in-process sweep whose JSON must
// match a direct engine run byte for byte, and the -max-wall drain.

import (
	"bytes"
	"encoding/json"
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
	unknownGrid := func(name string) string {
		return `scenario: unknown grid "` + name + `" (built-in grids: ` + strings.Join(scenario.BuiltinNames(), ", ") +
			"; load any other scenario file with -grid-file)"
	}
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"bad-trials", []string{"-trials", "0"}, 2, "sweep: -trials must be at least 1"},
		{"bad-scale", []string{"-scale", "2"}, 2, "sweep: -scale must be in (0, 1.5]"},
		{"bad-budget", []string{"-budget", "-1"}, 2, "sweep: -budget must be >= 0"},
		{"bad-max-wall", []string{"-max-wall", "-1s"}, 2, "sweep: -max-wall must be >= 0"},
		{"bad-cadence", []string{"-checkpoint-every", "-1"}, 2, "sweep: -checkpoint-every must be >= 0"},
		{"bad-variance", []string{"-variance", "x"}, 2, "flag provided but not defined: -variance"},
		{"resume-without-checkpoint", []string{"-resume"}, 2, "sweep: -resume requires -checkpoint to name the file to resume from"},
		{"cadence-without-checkpoint", []string{"-checkpoint-every", "8"}, 2, "sweep: -checkpoint-every requires -checkpoint"},
		{"grid-conflict", []string{"-grid", "smoke", "-grid-file", "x.json"}, 2, "sweep: -grid and -grid-file are mutually exclusive (one grid per sweep)"},
		{"unknown-grid", []string{"-grid", "bogus"}, 2, `unknown grid "bogus"`},
		{"grid-file-name", []string{"-grid", "x.json"}, 2, unknownGrid("x.json")},
		{"grid-path", []string{"-grid", "../x"}, 2, unknownGrid("../x")},
		{"missing-grid-file", []string{"-grid-file", "no-such-file.json"}, 2, "no-such-file.json"},
		{"resume-no-checkpoint-file", []string{"-resume", "-checkpoint", "definitely-absent.ckpt", "-trials", "1", "-scale", "0.004"}, 2,
			"sweep: -resume: no checkpoint at definitely-absent.ckpt"},
		{"unknown-flag", []string{"-bogus"}, 2, "flag provided but not defined"},
		{"positional-arg", []string{"frobnicate"}, 2, `sweep: unexpected argument "frobnicate" (sweep takes flags, or the "validate" subcommand; see -h)`},
		{"help", []string{"-h"}, 0, "Usage of sweep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
			if tc.code != 0 && stdout.Len() > 0 {
				t.Fatalf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

func TestValidateSubcommand(t *testing.T) {
	t.Run("no-args", func(t *testing.T) {
		var stderr bytes.Buffer
		if code := run([]string{"validate"}, io.Discard, &stderr); code != 2 {
			t.Fatalf("validate with no files = %d, want 2", code)
		}
		want := "sweep: validate needs at least one scenario file (usage: sweep validate scenario.json...)"
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr %q does not mention %q", stderr.String(), want)
		}
	})
	t.Run("valid-committed-spec", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		path := filepath.Join("..", "..", "examples", "scenarios", "smoke.json")
		if code := run([]string{"validate", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("validate %s = %d, want 0 (stderr %q)", path, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "OK") || !strings.Contains(stdout.String(), path) {
			t.Fatalf("validate stdout %q lacks the OK line for %s", stdout.String(), path)
		}
	})
	t.Run("invalid-file", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(bad, []byte(`{"name": "x", "trials": -4, "scenarios": [{"name": "baseline"}]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"validate", bad}, &stdout, &stderr); code != 1 {
			t.Fatalf("validate %s = %d, want 1 (stderr %q)", bad, code, stderr.String())
		}
		if stderr.Len() == 0 {
			t.Fatal("invalid file produced no error on stderr")
		}
	})
	t.Run("mixed-files-still-fail", func(t *testing.T) {
		// One good file does not mask a bad one: exit 1, but the good
		// file's OK line is still printed.
		bad := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(bad, []byte(`not json`), 0o644); err != nil {
			t.Fatal(err)
		}
		good := filepath.Join("..", "..", "examples", "scenarios", "smoke.json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"validate", good, bad}, &stdout, &stderr); code != 1 {
			t.Fatalf("validate good+bad = %d, want 1", code)
		}
		if !strings.Contains(stdout.String(), "OK") {
			t.Fatalf("good file's OK line missing from stdout %q", stdout.String())
		}
	})
}

// TestUsageListsEveryFlag scrapes the flag registrations out of main.go
// and requires each to be mentioned in the package doc comment, so the
// usage documentation cannot silently go stale.
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
	if len(matches) < 15 {
		t.Fatalf("scraped only %d flag registrations from main.go; the pattern is stale", len(matches))
	}
	for _, m := range matches {
		if !strings.Contains(doc, "-"+m[1]) {
			t.Errorf("flag -%s is not documented in the package comment", m[1])
		}
	}
}

// TestRunTinySweepMatchesEngine runs a minimal sweep through run() and
// requires the emitted -json bytes to equal a direct sweep.Execute run
// at a different worker count — the CLI adds parsing and IO, never
// arithmetic.
func TestRunTinySweepMatchesEngine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-trials", "2", "-scale", "0.004", "-grid", "smoke", "-json"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, want 0 (stderr %q)", args, code, stderr.String())
	}

	smoke, err := scenario.Builtin("smoke")
	if err != nil {
		t.Fatalf("Builtin(smoke): %v", err)
	}
	cfg := sweep.Config{Trials: 2, Seed: 42, Scale: 0.004, Workers: 3, Scenarios: smoke.Scenarios}
	res, err := sweep.Execute(cfg, nil, nil)
	if err != nil {
		t.Fatalf("direct Execute: %v", err)
	}
	var want bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatalf("encoding direct result: %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatal("CLI -json bytes differ from the direct engine run")
	}
	if !strings.Contains(stderr.String(), "sweep: 1 scenarios x 2 trials") &&
		!strings.Contains(stderr.String(), "scenarios x 2 trials") {
		t.Fatalf("progress line missing from stderr: %q", stderr.String())
	}
}

// TestTableHeaderPrintsScale: the table header prints the base scale
// as given, so a scale below 0.005 does not read as 0.00.
func TestTableHeaderPrintsScale(t *testing.T) {
	var stdout bytes.Buffer
	args := []string{"-trials", "1", "-scale", "0.004", "-grid", "smoke", "-workers", "1"}
	if code := run(args, &stdout, io.Discard); code != 0 {
		t.Fatalf("run(%v) = %d, want 0", args, code)
	}
	if want := "seed 42, base scale 0.004\n"; !strings.Contains(stdout.String(), want) {
		t.Fatalf("table header %q, want %q", strings.SplitN(stdout.String(), "\n", 2)[0], want)
	}
}

// TestDeadlineDrainAndResume: an already-expired -max-wall deadline
// drains the sweep before any trial runs, exits 0 with a PARTIAL result
// and a resumable checkpoint, and -resume then prints stdout
// byte-identical to an uninterrupted run. (The stopping point is
// timing-dependent in general; an expired deadline is its one
// deterministic case.)
func TestDeadlineDrainAndResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	args := func(extra ...string) []string {
		return append([]string{"-trials", "3", "-scale", "0.004", "-grid", "smoke", "-json"}, extra...)
	}
	var full bytes.Buffer
	if code := run(args("-workers", "1"), &full, io.Discard); code != 0 {
		t.Fatalf("uninterrupted run exited %d", code)
	}

	var part, stderr bytes.Buffer
	if code := run(args("-workers", "4", "-checkpoint", ckpt, "-max-wall", "1ns"), &part, &stderr); code != 0 {
		t.Fatalf("-max-wall run exited %d (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "sweep: PARTIAL result") {
		t.Fatalf("-max-wall run did not report a partial result: %q", stderr.String())
	}
	var res sweep.Result
	if err := json.Unmarshal(part.Bytes(), &res); err != nil {
		t.Fatalf("decoding the partial result: %v", err)
	}
	if !res.Partial {
		t.Fatal("deadline-stopped result not marked partial")
	}
	for _, ss := range res.Scenarios {
		// Workers poll the deadline before every pickup, so nothing
		// completes under an expired one.
		if ss.TrialsDone != 0 {
			t.Fatalf("scenario %s completed %d trials under an expired deadline", ss.Scenario.Name, ss.TrialsDone)
		}
	}

	var resumed bytes.Buffer
	stderr.Reset()
	if code := run(args("-workers", "2", "-checkpoint", ckpt, "-resume"), &resumed, &stderr); code != 0 {
		t.Fatalf("-resume exited %d (stderr %q)", code, stderr.String())
	}
	if !bytes.Equal(resumed.Bytes(), full.Bytes()) {
		t.Fatal("deadline-then-resumed stdout differs from the uninterrupted run")
	}
	if want := "sweep: resumed from " + ckpt + " at trial 0 of 6\n"; strings.Count(stderr.String(), "sweep: resum") != 1 || !strings.Contains(stderr.String(), want) {
		t.Fatalf("accepted resume: stderr %q, want one %q line", stderr.String(), want)
	}
}

// TestResumeErrorsPrefixedOnce: engine errors already start with
// "sweep: ", so neither a refused checkpoint (Execute) nor an
// unreadable one (RecoverCheckpoint) may print the prefix twice, and
// neither may announce a resume. The run header prints the base scale
// as given.
func TestResumeErrorsPrefixedOnce(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	args := func(extra ...string) []string {
		return append([]string{"-trials", "2", "-scale", "0.004", "-grid", "smoke", "-checkpoint", ckpt}, extra...)
	}
	if code := run(args("-max-wall", "1ns"), io.Discard, io.Discard); code != 0 {
		t.Fatalf("-max-wall run exited %d", code)
	}
	check := func(name string, wantCode int, want string, extra ...string) {
		t.Helper()
		var stderr bytes.Buffer
		if code := run(args(extra...), io.Discard, &stderr); code != wantCode {
			t.Fatalf("%s: exited %d, want %d (stderr %q)", name, code, wantCode, stderr.String())
		}
		got := stderr.String()
		if !strings.Contains(got, want) || strings.Contains(got, "sweep: sweep:") {
			t.Fatalf("%s: stderr %q, want one prefix on %q", name, got, want)
		}
		if strings.Contains(got, "sweep: resum") {
			t.Fatalf("%s: stderr %q announces a resume of a checkpoint that was not used", name, got)
		}
	}
	// Another seed is another checkpoint identity: Execute refuses it.
	check("refused", 1, "\nsweep: checkpoint was taken for a different sweep configuration", "-seed", "7", "-resume")
	check("header", 1, "sweep: 2 scenarios x 2 trials at base scale 0.004 (seed 7)\n", "-seed", "7", "-resume")

	if err := os.WriteFile(ckpt, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	check("unreadable", 2, "sweep: -resume: "+ckpt+" is not a sweep checkpoint", "-resume")
}
