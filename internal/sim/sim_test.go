package sim

import (
	"math"
	"sort"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

var runCache = map[int64]*Result{}

// runSmall returns a (cached) 2%-scale simulation for the seed. Tests
// only read results, so sharing is safe; tests needing distinct
// randomness use distinct seeds.
func runSmall(t *testing.T, seed int64) *Result {
	t.Helper()
	if res, ok := runCache[seed]; ok {
		return res
	}
	f := fleet.BuildDefault(0.02, seed)
	res := Run(f, failmodel.DefaultParams(), seed+1)
	runCache[seed] = res
	return res
}

func TestRunDeterministic(t *testing.T) {
	// Two genuinely independent runs (bypassing the cache).
	a := Run(fleet.BuildDefault(0.01, 42), failmodel.DefaultParams(), 43)
	b := Run(fleet.BuildDefault(0.01, 42), failmodel.DefaultParams(), 43)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs between identical runs", i)
		}
	}
	if len(a.Fleet.Disks) != len(b.Fleet.Disks) {
		t.Fatal("replacement populations differ")
	}
}

func TestEventsSortedAndInWindow(t *testing.T) {
	res := runSmall(t, 1)
	if len(res.Events) == 0 {
		t.Fatal("expected events")
	}
	prev := simtime.Seconds(-1)
	for _, e := range res.Events {
		if e.Time < prev {
			t.Fatal("events not sorted by time")
		}
		prev = e.Time
		if e.Time < 0 || e.Time >= simtime.StudyDuration {
			t.Fatalf("event at %d outside the study window", e.Time)
		}
		if e.Detected < e.Time || e.Detected-e.Time >= simtime.SecondsPerHour {
			t.Fatalf("detection lag %d outside [0, 1h)", e.Detected-e.Time)
		}
	}
}

func TestEventTopologyConsistent(t *testing.T) {
	res := runSmall(t, 1)
	f := res.Fleet
	for _, e := range res.Events {
		d := f.Disks[e.Disk]
		if int(d.Shelf) != e.Shelf || int(d.System) != e.System || int(d.RAIDGrp) != e.Group {
			t.Fatalf("event/topology mismatch for disk %d", e.Disk)
		}
		if e.Cause.Type() != e.Type {
			t.Fatalf("cause %s does not produce type %s", e.Cause, e.Type)
		}
		// Events must hit disks during their residency (disk failures
		// end the residency at the event time itself).
		if e.Time < d.Install || e.Time > d.Remove {
			t.Fatalf("event at %d outside disk residency [%d, %d]", e.Time, d.Install, d.Remove)
		}
	}
}

func TestDiskFailuresEndResidency(t *testing.T) {
	res := runSmall(t, 1)
	f := res.Fleet
	failures := 0
	for _, e := range res.Events {
		if e.Type != failmodel.DiskFailure {
			continue
		}
		failures++
		d := f.Disks[e.Disk]
		if !d.Replaced {
			t.Fatalf("failed disk %d not marked replaced", e.Disk)
		}
		if d.Remove != e.Time {
			t.Fatalf("failed disk %d removal %d != failure time %d", e.Disk, d.Remove, e.Time)
		}
	}
	if failures == 0 {
		t.Fatal("expected disk failures")
	}
}

func TestSlotNeverDoubleOccupied(t *testing.T) {
	res := runSmall(t, 1)
	f := res.Fleet
	type slotKey struct {
		shelf int32
		slot  uint8
	}
	occupants := make(map[slotKey][]int)
	for id, d := range f.Disks {
		k := slotKey{d.Shelf, d.Slot}
		occupants[k] = append(occupants[k], id)
	}
	for k, ids := range occupants {
		sort.Slice(ids, func(i, j int) bool { return f.Disks[ids[i]].Install < f.Disks[ids[j]].Install })
		for i := 1; i < len(ids); i++ {
			d, prev := f.Disks[ids[i]], f.Disks[ids[i-1]]
			if d.Install < prev.Remove {
				t.Fatalf("slot %v: disk %d installed at %d before predecessor removed at %d",
					k, ids[i], d.Install, prev.Remove)
			}
		}
	}
}

func TestReplacementGrowsPopulation(t *testing.T) {
	f := fleet.BuildDefault(0.02, 5)
	initial := len(f.Disks)
	res := Run(f, failmodel.DefaultParams(), 6)
	if len(res.Fleet.Disks) <= initial {
		t.Fatal("failures and churn must add replacement disks")
	}
	// Ever-installed should exceed initial by roughly (failures +
	// churn): each replaced disk that got a successor adds one record.
	added := len(res.Fleet.Disks) - initial
	diskFailures := 0
	for _, e := range res.Events {
		if e.Type == failmodel.DiskFailure {
			diskFailures++
		}
	}
	if added < diskFailures/2 {
		t.Errorf("only %d disks added for %d disk failures", added, diskFailures)
	}
}

func TestAFRMatchesCalibration(t *testing.T) {
	// Per-class, per-type AFR should land near the generative targets.
	f := fleet.BuildDefault(0.05, 7)
	params := failmodel.DefaultParams()
	res := Run(f, params, 8)

	classOf := func(e failmodel.Event) fleet.SystemClass { return f.Systems[e.System].Class }
	events := make(map[fleet.SystemClass]map[failmodel.FailureType]int)
	for _, c := range fleet.Classes {
		events[c] = make(map[failmodel.FailureType]int)
	}
	for _, e := range res.Events {
		if e.Visible() {
			events[classOf(e)][e.Type]++
		}
	}
	years := make(map[fleet.SystemClass]float64)
	for _, d := range f.Disks {
		years[f.Systems[d.System].Class] += d.ResidencyYears()
	}

	// Disk AFR: near-line ~1.9%, others closer to 0.8-1% (including H).
	nlDisk := float64(events[fleet.NearLine][failmodel.DiskFailure]) / years[fleet.NearLine]
	if math.Abs(nlDisk-0.019)/0.019 > 0.15 {
		t.Errorf("near-line disk AFR %.4f, want ~0.019", nlDisk)
	}
	lowDisk := float64(events[fleet.LowEnd][failmodel.DiskFailure]) / years[fleet.LowEnd]
	if lowDisk < 0.006 || lowDisk > 0.012 {
		t.Errorf("low-end disk AFR %.4f, want ~0.007-0.01", lowDisk)
	}
	// PI AFR: near-line target 0.92%.
	nlPI := float64(events[fleet.NearLine][failmodel.PhysicalInterconnect]) / years[fleet.NearLine]
	if math.Abs(nlPI-0.0092)/0.0092 > 0.25 {
		t.Errorf("near-line interconnect AFR %.4f, want ~0.0092", nlPI)
	}
	// High-end performance failures nearly absent (Table 1: 153 events).
	hePerf := float64(events[fleet.HighEnd][failmodel.Performance]) / years[fleet.HighEnd]
	if hePerf > 0.001 {
		t.Errorf("high-end performance AFR %.5f, want < 0.1%%", hePerf)
	}
}

func TestDualPathAbsorbsOnlyRecoverableCauses(t *testing.T) {
	res := runSmall(t, 1)
	f := res.Fleet
	for _, e := range res.Events {
		if e.Recovered {
			if f.Systems[e.System].Paths != fleet.DualPath {
				t.Fatal("recovered event on a single-path system")
			}
			if !e.Cause.PathRecoverable() {
				t.Fatalf("non-recoverable cause %s marked recovered", e.Cause)
			}
			if e.Type != failmodel.PhysicalInterconnect {
				t.Fatalf("recovered event of type %s", e.Type)
			}
		}
	}
	// On dual-path systems, no visible PI event may carry a recoverable
	// cause.
	for _, e := range res.Events {
		if e.Visible() && e.Type == failmodel.PhysicalInterconnect &&
			f.Systems[e.System].Paths == fleet.DualPath && e.Cause.PathRecoverable() {
			t.Fatal("recoverable cause visible on dual-path system")
		}
	}
}

func TestVisibleEvents(t *testing.T) {
	res := runSmall(t, 1)
	visible := res.VisibleEvents()
	recovered := len(res.Events) - len(visible)
	if recovered == 0 {
		t.Error("expected some multipath-recovered events at this scale")
	}
	for _, e := range visible {
		if e.Recovered {
			t.Fatal("VisibleEvents returned a recovered event")
		}
	}
}

func TestBurstsShareShelf(t *testing.T) {
	// Shelf-level interconnect bursts: events of one burst hit the same
	// shelf. Verified statistically: among PI events within 4h of each
	// other in the same system, most (not all: loop bursts span shelves)
	// share a shelf.
	res := runSmall(t, 1)
	var pi []failmodel.Event
	for _, e := range res.Events {
		if e.Type == failmodel.PhysicalInterconnect {
			pi = append(pi, e)
		}
	}
	sameShelf, crossShelf := 0, 0
	for i := 1; i < len(pi); i++ {
		a, b := pi[i-1], pi[i]
		if a.System == b.System && b.Time-a.Time < 4*simtime.SecondsPerHour {
			if a.Shelf == b.Shelf {
				sameShelf++
			} else {
				crossShelf++
			}
		}
	}
	if sameShelf == 0 {
		t.Fatal("expected same-shelf interconnect bursts")
	}
	if crossShelf == 0 {
		t.Fatal("expected loop-level (cross-shelf) interconnect bursts")
	}
	if sameShelf <= crossShelf {
		t.Errorf("shelf-level bursts (%d) should outnumber loop-level (%d)", sameShelf, crossShelf)
	}
}

func TestZeroRatesProduceNoEvents(t *testing.T) {
	f := fleet.BuildDefault(0.01, 12)
	p := failmodel.DefaultParams()
	for m := range p.DiskAFR {
		p.DiskAFR[m] = 0
	}
	for c := range p.PIBaseAFR {
		p.PIBaseAFR[c] = 0
	}
	p.PIInterop = map[failmodel.InteropKey]float64{}
	for c := range p.ProtoAFR {
		p.ProtoAFR[c] = 0
	}
	for c := range p.PerfAFR {
		p.PerfAFR[c] = 0
	}
	p.EnvEpisodeRate = 0
	res := Run(f, p, 13)
	if len(res.Events) != 0 {
		t.Fatalf("zero rates produced %d events", len(res.Events))
	}
}

func TestPoissonTimesProperties(t *testing.T) {
	r := stats.NewRNG(14)
	times := poissonTimes(nil, 10, 0, simtime.StudyDuration, r)
	years := simtime.StudyYears()
	want := 10 * years
	if math.Abs(float64(len(times))-want) > 4*math.Sqrt(want) {
		t.Errorf("Poisson process count %d, want ~%.0f", len(times), want)
	}
	prev := simtime.Seconds(-1)
	for _, tt := range times {
		if tt <= prev {
			t.Fatal("times must be strictly increasing")
		}
		if tt < 0 || tt >= simtime.StudyDuration {
			t.Fatal("time outside interval")
		}
		prev = tt
	}
	if poissonTimes(nil, 0, 0, 100, r) != nil {
		t.Error("zero rate must produce no events")
	}
	if poissonTimes(nil, 5, 100, 100, r) != nil {
		t.Error("empty interval must produce no events")
	}
	// Appends into the caller's buffer without discarding its prefix.
	buf := append([]simtime.Seconds(nil), 7)
	got := poissonTimes(buf, 10, 0, simtime.SecondsPerYear, r)
	if len(got) < 2 || got[0] != 7 {
		t.Error("poissonTimes must append to the provided buffer")
	}
}

func TestSlotChainLookup(t *testing.T) {
	c := slotChain{
		{disk: 1, from: 0, to: 100},
		{disk: 2, from: 150, to: 300},
	}
	cases := []struct {
		t    simtime.Seconds
		want int
		ok   bool
	}{
		{0, 1, true}, {99, 1, true}, {100, 0, false}, {120, 0, false},
		{150, 2, true}, {299, 2, true}, {300, 0, false},
	}
	for _, tc := range cases {
		got, ok := c.at(tc.t)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("at(%d) = (%d, %v), want (%d, %v)", tc.t, got, ok, tc.want, tc.ok)
		}
	}
}

func TestStreamKeyUnique(t *testing.T) {
	// Distinct (stream, id) pairs must map to distinct split keys, and
	// plain stream constants must never collide with keyed ones.
	seen := map[uint64]string{}
	record := func(k uint64, what string) {
		t.Helper()
		if prev, ok := seen[k]; ok {
			t.Fatalf("stream key collision: %s and %s both map to %#x", prev, what, k)
		}
		seen[k] = what
	}
	for _, s := range []uint64{streamSys, streamShelf, streamSlot} {
		for id := 0; id < 100; id++ {
			record(streamKey(s, id), "keyed")
		}
	}
	for _, s := range []uint64{streamSim, streamEnv, streamBase, streamEnvHit,
		streamChurn, streamCause, streamPI, streamPerf, streamLoop, streamProto} {
		record(s, "plain")
	}
}

// TestSimulateSystemAllocBudget is the zero-garbage contract of the hot
// path: once a worker's scratch buffers are warm, simulating a system
// allocates only the simulation's actual outputs (event records and
// replacement disks), which stay under a small fixed budget per round.
func TestSimulateSystemAllocBudget(t *testing.T) {
	f := fleet.BuildDefault(0.01, 17)
	cp := f.Checkpoint()
	w := &worker{f: f, params: failmodel.DefaultParams()}
	root := stats.NewRNG(18).Split(streamSim)

	// Warm-up: size every scratch buffer and the event slice.
	for i := range f.Systems {
		sysRNG := root.Split(streamKey(streamSys, f.Systems[i].ID))
		w.simulateSystem(&f.Systems[i], &sysRNG)
	}
	events := w.events[:0]

	sys := &f.Systems[len(f.Systems)/2]
	allocs := testing.AllocsPerRun(100, func() {
		f.Reset(cp)
		w.events = events
		sysRNG := root.Split(streamKey(streamSys, sys.ID))
		w.simulateSystem(sys, &sysRNG)
	})
	// Resetting the fleet above drops each round's replacements, which
	// the next round appends again into the slab's retained capacity.
	// A typical system sees at most a handful of replacements.
	const budget = 16
	if allocs > budget {
		t.Errorf("simulateSystem allocated %.1f times per round, budget %d", allocs, budget)
	}
}

// TestRNGSplitZeroAlloc pins the tentpole property at the call site the
// simulator depends on: splitting a stream costs nothing.
func TestRNGSplitZeroAlloc(t *testing.T) {
	root := stats.NewRNG(1).Split(streamSim)
	var sink uint64
	if n := testing.AllocsPerRun(1000, func() {
		c := root.Split(streamKey(streamSys, 12345))
		g := c.Split(streamKey(streamShelf, 7))
		sink += g.Uint64()
	}); n != 0 {
		t.Fatalf("RNG.Split allocated %v times per run, want 0", n)
	}
	_ = sink
}
