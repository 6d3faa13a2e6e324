package stats

import (
	"encoding/json"
	"math"
	"testing"
)

// TestRNGStateRoundTrip: a restored RNG continues the exact draw
// sequence of the captured one, and survives a JSON round trip.
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 13; i++ {
		r.Uint64()
	}
	st := r.State()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back RNGState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("JSON round trip changed the state: %+v vs %+v", back, st)
	}
	q := RestoreRNG(back)
	for i := 0; i < 100; i++ {
		if a, b := r.Uint64(), q.Uint64(); a != b {
			t.Fatalf("draw %d diverged: %d vs %d", i, a, b)
		}
	}
	// The stream identity survives too: Split children match.
	a, b := r.Split(99), q.Split(99)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split children diverged after restore")
	}
}

// TestOnlineStateRoundTrip: restore is bit-exact (including NaN-free
// running moments at full precision) and continued pushes match an
// uninterrupted accumulator exactly.
func TestOnlineStateRoundTrip(t *testing.T) {
	rng := NewRNG(3)
	var uninterrupted, first Online
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Normal(2, 7)
	}
	for _, x := range xs[:120] {
		uninterrupted.Push(x)
		first.Push(x)
	}
	st := first.State()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back OnlineState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	resumed := RestoreOnline(back)
	for _, x := range xs[120:] {
		uninterrupted.Push(x)
		resumed.Push(x)
	}
	if resumed != uninterrupted {
		t.Fatalf("resumed accumulator diverged: %+v vs %+v", resumed, uninterrupted)
	}
}

// TestOnlineStateEmptyAndNaN: the zero accumulator and non-finite
// moments round-trip exactly.
func TestOnlineStateEmptyAndNaN(t *testing.T) {
	var o Online
	if got := RestoreOnline(o.State()); got != o {
		t.Fatalf("empty accumulator round trip: %+v", got)
	}
	o.Push(math.Inf(1))
	o.Push(3)
	st := RestoreOnline(o.State())
	if st.N() != 2 || !math.IsInf(st.Max(), 1) {
		t.Fatalf("non-finite round trip: n=%d max=%v", st.N(), st.Max())
	}
}

// TestReservoirStateRoundTrip: a restored reservoir fed the same
// remaining stream retains exactly the sample an uninterrupted one
// holds — replacement randomness resumes mid-stream.
func TestReservoirStateRoundTrip(t *testing.T) {
	feed := NewRNG(11)
	mk := func() *Reservoir { return NewReservoir(16, *NewRNG(5)) }
	uninterrupted, first := mk(), mk()
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = feed.Float64()
	}
	for _, x := range xs[:170] {
		uninterrupted.Push(x)
		first.Push(x)
	}
	st := first.State()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back ReservoirState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// A different capacity and RNG: Restore must replace both.
	resumed := NewReservoir(4, *NewRNG(99))
	if err := resumed.Restore(back); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[170:] {
		uninterrupted.Push(x)
		resumed.Push(x)
	}
	if resumed.seen != uninterrupted.seen || len(resumed.xs) != len(uninterrupted.xs) {
		t.Fatalf("shape diverged: seen %d/%d len %d/%d",
			resumed.seen, uninterrupted.seen, len(resumed.xs), len(uninterrupted.xs))
	}
	for i := range uninterrupted.xs {
		if resumed.xs[i] != uninterrupted.xs[i] {
			t.Fatalf("sample %d diverged: %v vs %v", i, resumed.xs[i], uninterrupted.xs[i])
		}
	}
	if a, b := resumed.Quantile(0.5), uninterrupted.Quantile(0.5); a != b {
		t.Fatalf("median diverged: %v vs %v", a, b)
	}
}

// TestRestoreReservoirRejectsCorrupt: malformed states are refused
// with an error, never silently accepted, and leave the reservoir
// they were restored into unchanged.
func TestRestoreReservoirRejectsCorrupt(t *testing.T) {
	good := NewReservoir(4, *NewRNG(1))
	good.Push(1)
	for _, corrupt := range []func(*ReservoirState){
		func(st *ReservoirState) { st.Capacity = 0 },
		func(st *ReservoirState) { st.Capacity = -3 },
		func(st *ReservoirState) { st.Xs = make([]uint64, 9) },
		func(st *ReservoirState) { st.Seen = 0; st.Xs = make([]uint64, 2) },
	} {
		st := good.State()
		corrupt(&st)
		if err := good.Restore(st); err == nil {
			t.Fatalf("corrupt state %+v accepted", st)
		}
		if good.seen != 1 || len(good.xs) != 1 || cap(good.xs) != 4 {
			t.Fatalf("refused state %+v changed the reservoir: seen %d, %d of %d slots", st, good.seen, len(good.xs), cap(good.xs))
		}
	}
}
