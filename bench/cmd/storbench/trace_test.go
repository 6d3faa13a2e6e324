package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		// 0: root, 0-100 ms.
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		// 1, 2: concurrent children overlapping each other (10-40, 30-60):
		// together they cover 10-60, 50 ms, not 60.
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms},
		// 3: a child running past its parent's end counts only up to it.
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms},
		// 4: a grandchild is subtracted from its parent a, not from root.
		{Name: "a1", Parent: 1, Start: 15 * ms, End: 25 * ms},
		// 5: a child nested entirely inside a sibling's interval.
		{Name: "d", Parent: 0, Start: 35 * ms, End: 38 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100*ms - 50*ms - 10*ms, // root minus 10-60 and 90-100
		30*ms - 10*ms,          // a minus a1
		30 * ms,
		30 * ms,
		10 * ms,
		3 * ms,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestLedgerSumsByName(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "sweep.trial", Parent: -1, Start: 0, End: 10 * ms},
		{Name: "sim.simulate", Parent: 0, Start: 1 * ms, End: 5 * ms},
		{Name: "sweep.trial", Parent: -1, Start: 10 * ms, End: 30 * ms},
		{Name: "sim.simulate", Parent: 2, Start: 12 * ms, End: 20 * ms},
	}
	l := newLedger(spans)
	if l.count["sim.simulate"] != 2 || l.meanMs("sim.simulate") != 6 {
		t.Errorf("sim.simulate: %d spans, mean %v ms; want 2 spans, 6 ms", l.count["sim.simulate"], l.meanMs("sim.simulate"))
	}
	if got := l.self["sweep.trial"]; got != 18*ms {
		t.Errorf("sweep.trial self %v, want 18ms", got)
	}
}

func TestShardSkew(t *testing.T) {
	ms := time.Millisecond
	// Contiguous halves: [1 1] and [1 3] → loads 2 and 4, mean 3.
	if got := shardSkew([]time.Duration{ms, ms, ms, 3 * ms}, 2); math.Abs(got-(4.0/3-1)) > 1e-12 {
		t.Errorf("skew %v, want %v", got, 4.0/3-1)
	}
	if got := shardSkew([]time.Duration{ms, ms}, 2); got != 0 {
		t.Errorf("even shards: skew %v, want 0", got)
	}
}
