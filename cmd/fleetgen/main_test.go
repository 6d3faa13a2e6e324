package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"storagesubsys/internal/autosupport"
	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

// TestRunWritesArchive writes a small archive in-process and checks
// every file against an independently built and simulated fleet: each
// log is the system's rendered bundles, and each snapshot is
// TakeSnapshot at the system's last bundle week. fleetgen is the only
// reader of snapshots, so this pins what it writes.
func TestRunWritesArchive(t *testing.T) {
	const scale, seed = 0.005, 42
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run(&stdout, dir, scale, seed, 0); err != nil {
		t.Fatal(err)
	}

	f := fleet.BuildDefault(scale, seed)
	res := sim.Run(f, failmodel.DefaultParams(), seed+1)
	db := autosupport.Collect(f, res.Events)
	systems, bundles, messages := db.Stats()
	want := fmt.Sprintf("fleet: %d systems (%d with events), %d disks, %d events\nwrote %d system logs (%d weekly bundles, %d messages) under %s\n",
		len(f.Systems), systems, f.NumDisks(), len(res.Events), systems, bundles, messages, dir)
	if stdout.String() != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), want)
	}

	written := 0
	for _, sysID := range db.Systems() {
		logData, err := os.ReadFile(filepath.Join(dir, "logs", fmt.Sprintf("system-%06d.log", sysID)))
		if err != nil {
			t.Fatal(err)
		}
		if string(logData) != db.RenderSystemLog(sysID) {
			t.Errorf("system %d: log differs from the rendered bundles", sysID)
		}
		bs := db.Bundles(sysID)
		wantSnap, err := json.MarshalIndent(autosupport.TakeSnapshot(f, sysID, bs[len(bs)-1].Week), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(filepath.Join(dir, "snapshots", fmt.Sprintf("system-%06d.json", sysID)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("system %d: snapshot differs from TakeSnapshot at week %d", sysID, bs[len(bs)-1].Week)
		}
		written++
	}
	for _, sub := range []string{"logs", "snapshots"} {
		ents, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != written {
			t.Errorf("%s: %d files, want %d", sub, len(ents), written)
		}
	}
	if written == 0 {
		t.Fatal("no system has logged events")
	}
}
