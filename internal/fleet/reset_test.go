// Checkpoint/Reset trial-rollback tests. This file is an external test
// package so it can drive internal/sim against the fleet: the
// operational sweep dimensions (churn waves, stochastic repair lag,
// install-window skew, sparse shelves) exercise rollback paths a
// hand-built mutation cannot.
package fleet_test

import (
	"math"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/simtime"
)

// TestCheckpointReset verifies that Reset restores a mutated fleet to
// exactly its as-built state: replacement disks dropped from the fleet
// and their shelves, residencies restored, every surviving component
// equal to a freshly built twin's.
func TestCheckpointReset(t *testing.T) {
	f := fleet.BuildDefault(0.002, 11)
	ref := fleet.BuildDefault(0.002, 11)
	cp := f.Checkpoint()

	// Simulate the mutations a trial performs: fail and replace a few
	// disks (the replacement then churns out too), across two shelves.
	for _, id := range []int{0, 1, f.Shelves[1].Disks[0]} {
		d := &f.Disks[id]
		d.Remove = simtime.SecondsPerYear
		d.Replaced = true
		f.Replace(id, simtime.SecondsPerYear+1000)
	}
	if len(f.Disks) == len(ref.Disks) {
		t.Fatal("setup: no replacements installed")
	}

	f.Reset(cp)

	if len(f.Disks) != len(ref.Disks) {
		t.Fatalf("after Reset: %d disks, want %d", len(f.Disks), len(ref.Disks))
	}
	for i, d := range f.Disks {
		if want := ref.Disks[i]; d != want {
			t.Fatalf("disk %d = %+v, want %+v", i, d, want)
		}
	}
	for i, sh := range f.Shelves {
		want := ref.Shelves[i]
		if len(sh.Disks) != len(want.Disks) {
			t.Fatalf("shelf %d: %d disks, want %d", i, len(sh.Disks), len(want.Disks))
		}
		for j := range sh.Disks {
			if sh.Disks[j] != want.Disks[j] {
				t.Fatalf("shelf %d disk %d: %d, want %d", i, j, sh.Disks[j], want.Disks[j])
			}
		}
	}
	if gy, wy := f.DiskYears(nil), ref.DiskYears(nil); gy != wy {
		t.Fatalf("disk-years %v, want %v", gy, wy)
	}
}

// opsProfiles returns profiles stressing every fleet-side operational
// dimension at once: heavy churn waves, a skewed (older) deployment
// window, and a heterogeneous shelf-size mix.
func opsProfiles() []fleet.ClassProfile {
	profiles := fleet.DefaultProfiles()
	for i := range profiles {
		profiles[i].ChurnPerDiskYear *= 6
		profiles[i].SparseShelfFraction = 0.5
		profiles[i].SkewInstallWindow(-0.4)
	}
	return profiles
}

// opsParams returns failure-model params with a long, stochastic
// repair lag — the operational repair-discipline dimension.
func opsParams() *failmodel.Params {
	p := failmodel.DefaultParams()
	p.ScaleRepairLag(8)
	p.RepairLagSigma = 1.2
	return p
}

// sameEvents compares two event streams bit for bit.
func sameEvents(t *testing.T, got, want []failmodel.Event, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestResetRerunUnderChurnAndRepairLag pins the trial-rollback
// contract under the operational sweep dimensions: after a simulated
// trial with heavy churn (many non-failure replacements appended to
// the fleet) and long stochastic repair lags (replacement install
// times drawn per failure), Reset must restore the population so
// exactly that re-simulating with the same seed replays the identical
// event stream, replacement population, and disk-years — and both
// must equal a fresh build's run bit for bit.
func TestResetRerunUnderChurnAndRepairLag(t *testing.T) {
	profiles := opsProfiles()
	params := opsParams()
	const scale, buildSeed, simSeed = 0.01, 7, 99

	f := fleet.Build(profiles, scale, buildSeed)
	cp := f.Checkpoint()
	asBuilt := len(f.Disks)

	run := func(fl *fleet.Fleet) *sim.Result { return sim.Run(fl, params, simSeed) }

	res1 := run(f)
	ev1 := append([]failmodel.Event(nil), res1.Events...)
	disks1, dy1 := len(f.Disks), f.DiskYears(nil)
	if disks1 <= asBuilt {
		t.Fatal("setup: trial produced no replacements; churn/repair-lag dimensions not exercised")
	}

	// Rolled-back replay must be bit-identical.
	f.Reset(cp)
	if len(f.Disks) != asBuilt {
		t.Fatalf("Reset left %d disks, want the as-built %d", len(f.Disks), asBuilt)
	}
	res2 := run(f)
	sameEvents(t, res2.Events, ev1, "reset replay")
	if len(f.Disks) != disks1 {
		t.Fatalf("reset replay: %d disks, want %d", len(f.Disks), disks1)
	}
	if dy := f.DiskYears(nil); dy != dy1 {
		t.Fatalf("reset replay disk-years %v, want %v", dy, dy1)
	}

	// And must equal a from-scratch build+run, field for field.
	g := fleet.Build(opsProfiles(), scale, buildSeed)
	res3 := run(g)
	sameEvents(t, res3.Events, ev1, "fresh twin")
	if len(g.Disks) != disks1 {
		t.Fatalf("fresh twin: %d disks, want %d", len(g.Disks), disks1)
	}
	for i := range g.Disks {
		if g.Disks[i] != f.Disks[i] {
			t.Fatalf("disk %d diverged between reset replay and fresh twin: %+v vs %+v",
				i, f.Disks[i], g.Disks[i])
		}
	}
}

// TestResetNewSeedIndependentUnderOps: after Reset, a different
// simulation seed must yield a different realization over the same
// as-built population — the Monte-Carlo steady state the sweep's
// operational scenarios rely on.
func TestResetNewSeedIndependentUnderOps(t *testing.T) {
	profiles := opsProfiles()
	params := opsParams()
	f := fleet.Build(profiles, 0.01, 7)
	cp := f.Checkpoint()

	a := sim.Run(f, params, 99)
	nA := len(a.Events)
	f.Reset(cp)
	b := sim.Run(f, params, 100)
	if nA == 0 || len(b.Events) == 0 {
		t.Fatal("setup: empty realizations")
	}
	same := len(a.Events) == len(b.Events)
	if same {
		for i := range b.Events {
			if a.Events[i] != b.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds replayed an identical event stream")
	}
}

// TestBuildOpsProfilesDigest pins the build under the operational
// profile knobs — sparse shelves and a skewed install window gate extra
// RNG draws — to a digest recorded from the sharded arena builder, so
// the knobs' draw sequence cannot shift unnoticed.
func TestBuildOpsProfilesDigest(t *testing.T) {
	const want = 0x42c1179da1791f2d
	f := fleet.Build(opsProfiles(), 0.01, 3)
	if got := fleet.FleetDigest(f); got != want {
		t.Errorf("ops-profile build (%d systems, %d disks): digest %016x, want %016x",
			len(f.Systems), len(f.Disks), got, uint64(want))
	}
}

// TestSkewInstallWindow pins the cohort-skew arithmetic and its
// clamping.
func TestSkewInstallWindow(t *testing.T) {
	mk := func(start, end float64) fleet.ClassProfile {
		var p fleet.ClassProfile
		p.InstallWindow.Start, p.InstallWindow.End = start, end
		return p
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	p := mk(0.2, 1.0)
	p.SkewInstallWindow(0.5) // young fleet: start moves halfway to end
	if !near(p.InstallWindow.Start, 0.6) || p.InstallWindow.End != 1.0 {
		t.Fatalf("positive skew: window [%v, %v]", p.InstallWindow.Start, p.InstallWindow.End)
	}
	p = mk(0.2, 1.0)
	p.SkewInstallWindow(-0.5) // old fleet: end moves halfway to start
	if p.InstallWindow.Start != 0.2 || !near(p.InstallWindow.End, 0.6) {
		t.Fatalf("negative skew: window [%v, %v]", p.InstallWindow.Start, p.InstallWindow.End)
	}
	p = mk(0.0, 1.0)
	p.SkewInstallWindow(2) // clamped to 1: window collapses to the end
	if p.InstallWindow.Start != 1.0 {
		t.Fatalf("clamped skew: start %v, want 1.0", p.InstallWindow.Start)
	}
	p = mk(0.3, 0.8)
	p.SkewInstallWindow(0)
	if p.InstallWindow.Start != 0.3 || p.InstallWindow.End != 0.8 {
		t.Fatal("zero skew must be a no-op")
	}
}

// TestQuarantineRebuildReplaysIdentically pins the sweep engine's
// panic-quarantine contract (sweep retry.go): when a trial aborts
// mid-simulation, the fleet's mutations are torn in ways Checkpoint/
// Reset bookkeeping cannot be assumed to cover — the recovery path
// must therefore discard the instance and rebuild from (profiles,
// scale, seed). This test tears a fleet mid-"trial" with raw mutations
// that bypass Replace's bookkeeping entirely, then verifies a rebuilt
// fleet replays the trial's event stream, replacement population, and
// disk-years bit-identically to a never-aborted fresh build — proving
// the rebuild really is indistinguishable from a brand-new worker.
func TestQuarantineRebuildReplaysIdentically(t *testing.T) {
	profiles := opsProfiles()
	params := opsParams()
	const scale, buildSeed, simSeed = 0.01, 7, 99

	// The reference: a trial on a fleet that never aborted.
	ref := fleet.Build(opsProfiles(), scale, buildSeed)
	want := sim.Run(ref, params, simSeed)

	// The victim: a trial aborts partway through, leaving raw torn
	// state — removals and flags written directly, no Replace, a
	// shelf membership edited in place. Nothing here is visible to the
	// Checkpoint it took before the trial.
	f := fleet.Build(profiles, scale, buildSeed)
	_ = f.Checkpoint() // taken like a real worker; deliberately unused after the abort
	f.Disks[0].Remove = simtime.SecondsPerYear / 2
	f.Disks[1].Replaced = true
	f.Disks[2].Install += simtime.SecondsPerYear / 3
	f.Shelves[0].Disks = f.Shelves[0].Disks[:len(f.Shelves[0].Disks)-1]

	// Quarantine: the torn instance is dropped, a replacement is built
	// from the same inputs, and the trial re-runs from its seed.
	f = nil
	rebuilt := fleet.Build(opsProfiles(), scale, buildSeed)
	got := sim.Run(rebuilt, params, simSeed)

	sameEvents(t, got.Events, want.Events, "quarantine rebuild")
	if len(rebuilt.Disks) != len(ref.Disks) {
		t.Fatalf("rebuilt population %d disks, want %d", len(rebuilt.Disks), len(ref.Disks))
	}
	for i := range ref.Disks {
		if rebuilt.Disks[i] != ref.Disks[i] {
			t.Fatalf("disk %d diverged after quarantine rebuild: %+v vs %+v",
				i, rebuilt.Disks[i], ref.Disks[i])
		}
	}
	if gy, wy := rebuilt.DiskYears(nil), ref.DiskYears(nil); gy != wy {
		t.Fatalf("disk-years %v after quarantine rebuild, want %v", gy, wy)
	}
}
