// Checkpoint/Reset trial-rollback tests. This file is an external test
// package so it can drive internal/sim against the fleet: the
// operational sweep dimensions (churn waves, stochastic repair lag,
// install-window skew, sparse shelves) exercise rollback paths a
// hand-built mutation cannot.
package fleet_test

import (
	"math"
	"slices"
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
	// disks, across two shelves, and churn a replacement out.
	var repl int
	for _, id := range []int{0, 1, int(f.Shelves[1].Disks.Lo)} {
		f.Remove(id, simtime.SecondsPerYear, true)
		repl = f.Replace(f.Disk(id), simtime.SecondsPerYear+1000)
	}
	f.Remove(repl, 2*simtime.SecondsPerYear, false)
	if f.NumDisks() == ref.NumDisks() {
		t.Fatal("setup: no replacements installed")
	}

	f.Reset(cp)

	if f.NumDisks() != ref.NumDisks() {
		t.Fatalf("after Reset: %d disks, want %d", f.NumDisks(), ref.NumDisks())
	}
	for i, d := range fleet.AllDisks(f) {
		if want := ref.Disk(i); d != want {
			t.Fatalf("disk %d = %+v, want %+v", i, d, want)
		}
	}
	for i, sh := range f.Shelves {
		if want := ref.Shelves[i]; sh != want {
			t.Fatalf("shelf %d = %+v, want %+v", i, sh, want)
		}
		if got, want := f.ShelfDisks(nil, i), ref.ShelfDisks(nil, i); !slices.Equal(got, want) {
			t.Fatalf("shelf %d disks %v, want %v", i, got, want)
		}
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
	asBuilt := f.NumDisks()

	run := func(fl *fleet.Fleet) *sim.Result { return sim.Run(fl, params, simSeed) }

	res1 := run(f)
	ev1 := append([]failmodel.Event(nil), res1.Events...)
	disks1 := fleet.AllDisks(f)
	if len(disks1) <= asBuilt {
		t.Fatal("setup: trial produced no replacements; churn/repair-lag dimensions not exercised")
	}

	// Rolled-back replay must be bit-identical.
	f.Reset(cp)
	if f.NumDisks() != asBuilt {
		t.Fatalf("Reset left %d disks, want the as-built %d", f.NumDisks(), asBuilt)
	}
	res2 := run(f)
	sameEvents(t, res2.Events, ev1, "reset replay")
	if !slices.Equal(fleet.AllDisks(f), disks1) {
		t.Fatalf("reset replay: %d disks differ from the first run's %d", f.NumDisks(), len(disks1))
	}

	// And must equal a from-scratch build+run, field for field.
	g := fleet.Build(opsProfiles(), scale, buildSeed)
	res3 := run(g)
	sameEvents(t, res3.Events, ev1, "fresh twin")
	if g.NumDisks() != len(disks1) {
		t.Fatalf("fresh twin: %d disks, want %d", g.NumDisks(), len(disks1))
	}
	for i, d := range fleet.AllDisks(g) {
		if d != disks1[i] {
			t.Fatalf("disk %d diverged between reset replay and fresh twin: %+v vs %+v",
				i, disks1[i], d)
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
			len(f.Systems), f.NumDisks(), got, uint64(want))
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
// scale, seed). This test tears a fleet mid-"trial" — removals and a
// replacement the trial never finished, and a shelf span edited in
// place — then verifies a rebuilt
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

	// The victim: a trial aborts partway through, leaving torn state —
	// removals with no replacement, a replacement whose predecessor
	// was never removed, a shelf span edited in place.
	f := fleet.Build(profiles, scale, buildSeed)
	_ = f.Checkpoint() // taken like a real worker; deliberately unused after the abort
	f.Remove(0, simtime.SecondsPerYear/2, false)
	f.Remove(1, simtime.SecondsPerYear/2, true)
	f.Replace(f.Disk(2), simtime.SecondsPerYear/3)
	f.Shelves[0].Disks.Hi--

	// Quarantine: the torn instance is dropped, a replacement is built
	// from the same inputs, and the trial re-runs from its seed.
	f = nil
	rebuilt := fleet.Build(opsProfiles(), scale, buildSeed)
	got := sim.Run(rebuilt, params, simSeed)

	sameEvents(t, got.Events, want.Events, "quarantine rebuild")
	if !slices.Equal(fleet.AllDisks(rebuilt), fleet.AllDisks(ref)) {
		t.Fatalf("rebuilt population of %d disks diverged from the reference's %d",
			rebuilt.NumDisks(), ref.NumDisks())
	}
}

// TestChurnTrialKeepsDelta requires Reset to keep the delta's
// storage: after a churn-x4 trial and a Reset, replaying the trial
// records its removals and replacements without regrowing the delta.
func TestChurnTrialKeepsDelta(t *testing.T) {
	profiles := fleet.DefaultProfiles()
	for i := range profiles {
		profiles[i].ChurnPerDiskYear *= 4
	}
	params := failmodel.DefaultParams()
	for seed := int64(1); seed <= 2; seed++ {
		f := fleet.Build(profiles, 0.05, seed)
		cp := f.Checkpoint()
		sim.Run(f, params, seed)
		grown := f.ApproxBytes()
		f.Reset(cp)
		if got := f.ApproxBytes(); got != grown {
			t.Errorf("seed %d: Reset changed the fleet's bytes from %d to %d", seed, grown, got)
		}
		sim.Run(f, params, seed)
		if got := f.ApproxBytes(); got != grown {
			t.Errorf("seed %d: the replayed trial regrew the delta from %d to %d bytes", seed, grown, got)
		}
	}
}
