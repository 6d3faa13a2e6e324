package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point. Spans of one trial or job share a Trace ID
// (workload/scenario/trial, or a job ID); Parent is the index of the
// span that caused this one, -1 for a root.
type span struct {
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends.
// It is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(trace, name string, parent int) int {
	t.spans = append(t.spans, span{Trace: trace, Name: name, Parent: parent, Start: time.Since(t.epoch), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.epoch) }

// duration returns a closed span's length.
func (t *tracer) duration(id int) time.Duration { return t.spans[id].End - t.spans[id].Start }

// do records f as a span.
func (t *tracer) do(trace, name string, parent int, f func()) {
	id := t.begin(trace, name, parent)
	f()
	t.end(id)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (concurrent calls) or run past their parent; only the union of
// their intervals clipped to the parent is subtracted, so no instant is
// subtracted twice.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := time.Duration(0)
		curLo, curHi := time.Duration(0), time.Duration(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// ledger sums self time and counts spans by name.
type ledger struct {
	self  map[string]time.Duration
	count map[string]int
}

func newLedger(spans []span) ledger {
	l := ledger{self: map[string]time.Duration{}, count: map[string]int{}}
	for i, d := range selfTimes(spans) {
		l.self[spans[i].Name] += d
		l.count[spans[i].Name]++
	}
	return l
}

// meanMs is the mean self time per span of name, in milliseconds (NaN
// when no such span was recorded, which the result check rejects).
func (l ledger) meanMs(name string) float64 {
	if l.count[name] == 0 {
		return math.NaN()
	}
	return ms(l.self[name]) / float64(l.count[name])
}
