package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// runDigest hashes everything a simulation run leaves behind: every
// event field in stream order, every disk record of the mutated fleet
// (replacements included, so their IDs and residencies are pinned; each
// disk's system derived through its shelf), and every shelf's mounted
// disks in order (ShelfDisks).
func runDigest(res *Result) string {
	h := sha256.New()
	w := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	w(int64(len(res.Events)))
	for _, e := range res.Events {
		w(int64(e.Time), int64(e.Detected), int64(e.Type), int64(e.Cause),
			int64(e.Disk), int64(e.Shelf), int64(e.System), int64(e.Group), b2i(e.Recovered))
	}
	f := res.Fleet
	w(int64(f.NumDisks()))
	for _, d := range fleetDisks(f) {
		w(int64(d.Install), int64(d.Remove), int64(f.Shelves[d.Shelf].System), int64(d.Shelf),
			int64(d.RAIDGrp), int64(d.Slot), b2i(d.Replaced))
	}
	var ids []int
	for i := range f.Shelves {
		ids = f.ShelfDisks(ids[:0], i)
		w(int64(len(ids)))
		for _, id := range ids {
			w(int64(id))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// fleetDisks returns every disk's record in ID order.
func fleetDisks(f *fleet.Fleet) []fleet.Disk {
	disks := make([]fleet.Disk, f.NumDisks())
	for id := range disks {
		disks[id] = f.Disk(id)
	}
	return disks
}

// TestRunGoldenDigest pins the simulator's complete output — event
// stream, post-simulation disk slab, shelf disk lists — at one fleet
// and seed. The digest was recorded from the sharded engine this one
// replaced (equal at 1 and 3 workers), so any change to it is a
// changed simulation, not a refactor.
func TestRunGoldenDigest(t *testing.T) {
	const want = "9c3e37ec129dea4de1d0bb3325fc6008bb45af8b0fbecbe60ff843e132fedb35"
	f := fleet.BuildDefault(0.02, 9)
	res := RunOpts(f, failmodel.DefaultParams(), 10, nil)
	if len(res.Events) == 0 || f.NumDisks() == fleet.BuildDefault(0.02, 9).NumDisks() {
		t.Fatal("setup produced no events or no replacements")
	}
	if got := runDigest(res); got != want {
		t.Errorf("run digest %s, want %s", got, want)
	}
}

// TestRunGoldenDigestOverrides pins the simulator's complete output
// under each operational override the ops grid sweeps, plus a doubled
// disk AFR, at the fleet and seeds of TestRunGoldenDigest. The
// overrides reach code paths the default parameters leave cold:
// stochastic repair lags (their own per-slot stream), churn-heavy
// slots, disks installed late or early in the window, half-populated
// shelves and twice the baseline failures. The fleet overrides mirror
// sweep.BuildFleet and the parameter overrides sweep's scenario
// params. Recorded before the simulator's stream-expansion shortcuts,
// so any change to a digest is a changed simulation, not a refactor.
func TestRunGoldenDigestOverrides(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile func(*fleet.ClassProfile)
		params  func(*failmodel.Params)
		want    string
	}{
		{name: "slow-repair", params: func(p *failmodel.Params) {
			p.ScaleRepairLag(8)
			p.RepairLagSigma = 1
		}, want: "82834213329e957eb41e2ff04738bbf828950fd8c51d462492a1f54c6785d6f2"},
		{name: "churn-x4", profile: func(c *fleet.ClassProfile) { c.ChurnPerDiskYear *= 4 }, want: "766756b887f87ee0fda26b126f9d0e6cdb09ff2e343bd05d633a3869281ea887"},
		{name: "young-fleet", profile: func(c *fleet.ClassProfile) { c.SkewInstallWindow(0.5) }, want: "adb9631e890ef3d97d7f73f92dde1f9605e53d249a6eb45ddd2a50995a677037"},
		{name: "old-fleet", profile: func(c *fleet.ClassProfile) { c.SkewInstallWindow(-0.5) }, want: "47d35517b84082cd6120e4758b81f2d6d025cef45fec77b04716c9d982daca61"},
		{name: "sparse-shelves", profile: func(c *fleet.ClassProfile) { c.SparseShelfFraction = 0.5 }, want: "6c290edfedd0e8e2b4df26efee98410f3f83f205b81d4ccd6950f3babb23489f"},
		{name: "disk-afr-x2", params: func(p *failmodel.Params) { p.ScaleDiskAFR(2) }, want: "a7fc0dbd52d0d02654d4393e0adadc7340a3fed1df653b772f4d05fb509680bd"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			profiles := fleet.DefaultProfiles()
			if tc.profile != nil {
				for i := range profiles {
					tc.profile(&profiles[i])
				}
			}
			params := failmodel.DefaultParams()
			if tc.params != nil {
				tc.params(params)
			}
			res := RunOpts(fleet.Build(profiles, 0.02, 9), params, 10, nil)
			if got := runDigest(res); got != tc.want {
				t.Errorf("run digest %s, want %s", got, tc.want)
			}
		})
	}
}
