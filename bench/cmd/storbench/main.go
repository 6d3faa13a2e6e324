// Command storbench is the repository benchmark: four named workloads
// over the sweep engine and the sweepd control plane, end-to-end
// metrics measured with tracing off, and a traced run that attributes
// trial time to the layers the engine calls.
//
// Usage:
//
//	storbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-runs K] [-json]
//	storbench compare A.json B.json
//
// With -workload and the default -runs 1 the workload runs in this
// process: one "workload metric value unit" line per metric goes to
// standard error and one JSON object ({"correct", "attempted",
// "failed", "metrics"}) is the last line of standard output. -trace 1
// reports the per-layer metrics instead of the end-to-end ones. Without
// -workload, or with -runs above 1, every selected workload runs K
// times, each run a fresh child process (so peak RSS is per run) with
// seeds N, N+1, ...; -json then prints the set of runs as one JSON
// document that compare reads. The command exits non-zero when any
// correctness check fails.
//
// Run it from the repository root (bench/run.sh builds and runs it
// there); see bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

var stderr io.Writer = os.Stderr

// procs is the GOMAXPROCS every workload run uses: the reference
// machine's core count, so runs on larger machines stay comparable.
const procs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout)
	}
	fs := flag.NewFlagSet("storbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all)")
	seed := fs.Int64("seed", 42, "workload seed; inputs are a pure function of it")
	seconds := fs.Float64("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	runs := fs.Int("runs", 1, "runs per workload, each a child process with the next seed")
	asJSON := fs.Bool("json", false, "with several runs, print the run set as one JSON document")
	smoke := fs.Bool("smoke", false, "shrink every workload to a few seconds (tests)")
	dir := fs.String("workloads", filepath.Join("bench", "workloads"), "directory holding the workload files")
	work := fs.String("work", ".bench_build", "directory for the run's scratch files")
	spans := fs.String("spans", "", "traced single run: write spans to this file (default <work>/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "storbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "storbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintf(stderr, "storbench: -seconds must be positive and -runs at least 1\n")
		return 2
	}
	o := &options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, dir: *dir, spans: *spans}

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "storbench: %v\n", err)
			return 2
		}
		selected = []workload{w}
		if *runs == 1 {
			if o.trace && o.spans == "" {
				o.spans = filepath.Join(*work, "spans-"+w.Name+".json")
			}
			return runOne(o, w, *work, stdout)
		}
	}
	child := []string{"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*trace),
		"-workloads", *dir, "-work", *work}
	if *smoke {
		child = append(child, "-smoke")
	}
	set, ok := runChildren(selected, *runs, *seed, child)
	set.Trace = o.trace
	if *asJSON {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "storbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its result.
func runOne(o *options, w workload, workRoot string, stdout io.Writer) int {
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "storbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "storbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	o.work = work

	var res *runResult
	switch {
	case o.trace:
		res, err = runTraced(o, w)
	case w.Name == wSvc:
		res, err = runSvc(o, w)
	default:
		res, err = runSweep(o, w)
	}
	if err != nil {
		fmt.Fprintf(stderr, "storbench: %s: %v\n", w.Name, err)
		return 1
	}
	printLines(stderr, w.Name, res.Metrics)
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "storbench: %v\n", err)
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		fmt.Fprintf(stderr, "storbench: %s: correctness checks failed\n", w.Name)
		return 1
	}
	return 0
}

// runSet is the document -json prints and compare reads: every run's
// result, per workload, in seed order.
type runSet struct {
	Trace bool                    `json:"trace"`
	Runs  map[string][]*runResult `json:"runs"`
}

// runChildren runs each workload k times as child processes of this
// binary with consecutive seeds and the given further flags. It reports
// whether every run completed and was correct.
func runChildren(ws []workload, k int, seed int64, flags []string) (*runSet, bool) {
	set := &runSet{Runs: map[string][]*runResult{}}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "storbench: %v\n", err)
		return set, false
	}
	ok := true
	for _, w := range ws {
		for i := 0; i < k; i++ {
			s := seed + int64(i)
			cmd := exec.Command(exe, append([]string{"-workload", w.Name, "-seed", strconv.FormatInt(s, 10)}, flags...)...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "storbench: %s seed %d: %v\n", w.Name, s, err)
				ok = false
			}
			// An incorrect run still prints its result; keep it in the set.
			res, perr := lastResult(out)
			if perr != nil {
				fmt.Fprintf(stderr, "storbench: %s seed %d: %v\n", w.Name, s, perr)
				ok = false
				continue
			}
			set.Runs[w.Name] = append(set.Runs[w.Name], res)
		}
	}
	return set, ok
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (*runResult, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	res := &runResult{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, fmt.Errorf("parsing run result: %w", err)
	}
	return res, nil
}
