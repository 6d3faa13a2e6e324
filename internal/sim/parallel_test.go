package sim

import (
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// TestWorkerCountEquivalence is the contract behind the parallel
// engine: for the same (fleet, params, seed), every worker count must
// produce bit-identical events AND a bit-identical mutated fleet
// (replacement disk IDs, serials, residencies — hence DiskYears).
func TestWorkerCountEquivalence(t *testing.T) {
	params := failmodel.DefaultParams()
	build := func() *fleet.Fleet { return fleet.BuildDefault(0.02, 9) }

	ref := RunWorkers(build(), params, 10, 1)
	if len(ref.Events) == 0 {
		t.Fatal("reference run produced no events")
	}

	// 2 and 8 exercise real sharding; 10000 exceeds the system count and
	// must clamp; 0 resolves to GOMAXPROCS.
	for _, workers := range []int{2, 8, 10000, 0} {
		got := RunWorkers(build(), params, 10, workers)

		if len(got.Events) != len(ref.Events) {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(got.Events), len(ref.Events))
		}
		for i := range ref.Events {
			if got.Events[i] != ref.Events[i] {
				t.Fatalf("workers=%d: event %d differs:\n got %+v\nwant %+v",
					workers, i, got.Events[i], ref.Events[i])
			}
		}

		rf, gf := ref.Fleet, got.Fleet
		if len(gf.Disks) != len(rf.Disks) {
			t.Fatalf("workers=%d: %d disks, want %d", workers, len(gf.Disks), len(rf.Disks))
		}
		for i := range rf.Disks {
			if gf.Disks[i] != rf.Disks[i] {
				t.Fatalf("workers=%d: disk %d differs:\n got %+v\nwant %+v",
					workers, i, gf.Disks[i], rf.Disks[i])
			}
		}
		for i := range rf.Shelves {
			a, b := rf.Shelves[i].Disks, gf.Shelves[i].Disks
			if len(a) != len(b) {
				t.Fatalf("workers=%d: shelf %d has %d disks, want %d", workers, i, len(b), len(a))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("workers=%d: shelf %d disk order differs at %d", workers, i, j)
				}
			}
		}
		if gy, ry := gf.DiskYears(nil), rf.DiskYears(nil); gy != ry {
			t.Fatalf("workers=%d: disk-years %v, want %v", workers, gy, ry)
		}
	}
}

// TestRunMatchesRunWorkers pins Run as the serial (1-worker) form.
func TestRunMatchesRunWorkers(t *testing.T) {
	params := failmodel.DefaultParams()
	a := Run(fleet.BuildDefault(0.01, 3), params, 4)
	b := RunWorkers(fleet.BuildDefault(0.01, 3), params, 4, 1)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("Run and RunWorkers(1) differ: %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs between Run and RunWorkers(1)", i)
		}
	}
}

// TestMergeStreams checks the k-way merge directly, including stream
// exhaustion mid-merge and the empty-stream fast paths.
func TestMergeStreams(t *testing.T) {
	ev := func(time int64, disk int) failmodel.Event {
		return failmodel.Event{Time: time, Disk: disk}
	}
	cases := []struct {
		name    string
		streams [][]failmodel.Event
		want    []failmodel.Event
	}{
		{"empty", nil, nil},
		{"all-empty", [][]failmodel.Event{{}, {}}, nil},
		{"single", [][]failmodel.Event{{ev(1, 1), ev(2, 2)}}, []failmodel.Event{ev(1, 1), ev(2, 2)}},
		{
			"interleave",
			[][]failmodel.Event{
				{ev(1, 1), ev(5, 1), ev(9, 1)},
				{ev(2, 2), ev(3, 2)},
				{},
				{ev(2, 3), ev(10, 3)},
			},
			[]failmodel.Event{ev(1, 1), ev(2, 2), ev(2, 3), ev(3, 2), ev(5, 1), ev(9, 1), ev(10, 3)},
		},
	}
	for _, tc := range cases {
		total := 0
		for _, s := range tc.streams {
			total += len(s)
		}
		got, _ := mergeStreams(tc.streams, total, nil)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %d events, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: event %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestMergeStreamsBufAliasing pins the retention contract behind
// Scratch.merged: a degenerate merge (one non-empty stream) returns
// that stream itself and must report usedBuf false — retaining it as
// the next run's merge buffer would alias a worker's live event
// buffer and corrupt the merge — while a real merge writes into buf
// (or a grown replacement) and reports true.
func TestMergeStreamsBufAliasing(t *testing.T) {
	ev := func(time int64, disk int) failmodel.Event {
		return failmodel.Event{Time: time, Disk: disk}
	}
	buf := make([]failmodel.Event, 0, 16)

	single := [][]failmodel.Event{nil, {ev(1, 1), ev(2, 2)}, {}}
	got, usedBuf := mergeStreams(single, 2, buf)
	if usedBuf {
		t.Fatal("single non-empty stream reported usedBuf = true")
	}
	if &got[0] != &single[1][0] {
		t.Fatal("single non-empty stream must be returned unbuffered (same backing array)")
	}

	multi := [][]failmodel.Event{{ev(1, 1)}, {ev(2, 2)}}
	got, usedBuf = mergeStreams(multi, 2, buf)
	if !usedBuf {
		t.Fatal("real merge reported usedBuf = false")
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("real merge within capacity must write into the supplied buffer")
	}
}
