package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"

	"storagesubsys/internal/autosupport"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

// TestRunMinesFleetgenArchive is the file round trip: cmd/fleetgen
// writes an archive, and analyze -exp classify over its logs must print
// exactly the per-type counts that in-memory Collect + MineEvents give,
// with no malformed line and no unresolved record.
func TestRunMinesFleetgenArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/fleetgen")
	}
	const scale, seed = 0.005, 42
	dir := t.TempDir()
	fleetgen := filepath.Join(dir, "fleetgen")
	if out, err := exec.Command("go", "build", "-o", fleetgen, "storagesubsys/cmd/fleetgen").CombinedOutput(); err != nil {
		t.Fatalf("building fleetgen: %v\n%s", err, out)
	}
	archive := filepath.Join(dir, "asup")
	if out, err := exec.Command(fleetgen, "-out", archive, "-scale", fmt.Sprint(scale), "-seed", fmt.Sprint(seed)).CombinedOutput(); err != nil {
		t.Fatalf("fleetgen: %v\n%s", err, out)
	}

	var stdout bytes.Buffer
	if err := run(&stdout, filepath.Join(archive, "logs"), scale, seed, "classify"); err != nil {
		t.Fatal(err)
	}

	f := fleet.BuildDefault(scale, seed)
	res := sim.Run(f, failmodel.DefaultParams(), seed+1)
	db := autosupport.Collect(f, res.Events)
	mined, dropped := db.MineEvents()
	if dropped != 0 {
		t.Fatalf("in-memory mining dropped %d records", dropped)
	}
	counts := map[failmodel.FailureType]int{}
	for _, e := range mined {
		counts[e.Type]++
	}
	logs, err := filepath.Glob(filepath.Join(archive, "logs", "*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no logs written: %v", err)
	}
	_, _, messages := db.Stats()
	want := fmt.Sprintf("parsed %d messages from %d files (0 malformed lines), classified %d failures (0 unresolved)\n",
		messages, len(logs), len(mined))
	for _, ft := range failmodel.Types {
		want += fmt.Sprintf("%-32s %d\n", ft, counts[ft])
	}
	if got := stdout.String(); got != want {
		t.Errorf("analyze -exp classify:\n%s\nwant:\n%s", got, want)
	}
}
