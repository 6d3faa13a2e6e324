package sweep

// CRN paired-delta aggregation. Because trialSeed is scenario-
// independent (the CRN contract in the package comment), trial t of
// scenario S and trial t of the baseline run on identical failure-
// history streams, so the per-trial difference S_t − B_t cancels the
// shared Monte-Carlo noise. The deltaAgg folds those differences into
// one stats.PairedOnline per (non-baseline scenario, metric), fed by
// the ordered collector exactly like the per-scenario aggregators — so
// the Deltas section of the Result is byte-identical for every worker
// count, and its state rides the checkpoint envelope for byte-exact
// crash/resume.
//
// Pairing order: jobs complete in scenario-major global order, so by
// the time any scenario *after* the baseline produces trial t, the
// baseline's trial t vector is already retained and the pair is pushed
// immediately. Scenarios *before* the baseline (possible when a grid
// names its baseline mid-list) buffer their rows until the baseline
// row lands, then flush in ascending scenario order — the one fixed
// order that makes the Push sequence independent of worker scheduling.

import (
	"fmt"
	"math"

	"storagesubsys/internal/stats"
)

// BaselineName is the scenario name the delta machinery (and
// internal/expreport) treats as the contrast baseline when present;
// otherwise the grid's first scenario is the baseline.
const BaselineName = "baseline"

// BaselineIndex returns the index of the contrast baseline in scens:
// the scenario named BaselineName, else 0. It is the one baseline rule;
// internal/scenario and internal/expreport resolve theirs through it.
func BaselineIndex(scens []Scenario) int {
	for i, s := range scens {
		if s.Name == BaselineName {
			return i
		}
	}
	return 0
}

// deltaAgg accumulates per-trial scenario-vs-baseline differences.
// Only the collector touches it, in global job order.
type deltaAgg struct {
	bi     int // baseline scenario index
	trials int
	nMet   int
	// paired[si][mi] aggregates metric mi's per-trial (scenario si −
	// baseline) differences; row bi is allocated but never pushed.
	paired [][]stats.PairedOnline
	// base[ti] retains the baseline's trial-ti metric vector (nil until
	// aggregated, or when the trial permanently failed).
	base [][]float64
	// pending[si][ti] buffers rows of scenarios that precede the
	// baseline in the grid until base[ti] lands; nil for si >= bi.
	pending [][][]float64
}

func newDeltaAgg(scens []Scenario, trials, nMet int) *deltaAgg {
	d := &deltaAgg{
		bi:      BaselineIndex(scens),
		trials:  trials,
		nMet:    nMet,
		paired:  make([][]stats.PairedOnline, len(scens)),
		base:    make([][]float64, trials),
		pending: make([][][]float64, len(scens)),
	}
	for si := range d.paired {
		d.paired[si] = make([]stats.PairedOnline, nMet)
		if si < d.bi {
			d.pending[si] = make([][]float64, trials)
		}
	}
	return d
}

// pushPair feeds one (scenario, baseline) trial pair, skipping failed
// trials (nil rows) and per-metric NaNs (undefined on either side).
func (d *deltaAgg) pushPair(si int, vals, base []float64) {
	if vals == nil || base == nil {
		return
	}
	for mi := 0; mi < d.nMet; mi++ {
		x, y := vals[mi], base[mi]
		if math.IsNaN(x) || math.IsNaN(y) {
			continue
		}
		d.paired[si][mi].Push(x, y)
	}
}

// absorb folds one aggregated trial into the delta state. vals is nil
// when the trial permanently failed; its pairs are skipped.
func (d *deltaAgg) absorb(si, ti int, vals []float64) {
	switch {
	case si == d.bi:
		d.base[ti] = vals
		for sj := 0; sj < d.bi; sj++ {
			d.pushPair(sj, d.pending[sj][ti], vals)
			d.pending[sj][ti] = nil
		}
	case si < d.bi:
		d.pending[si][ti] = vals
	default:
		d.pushPair(si, vals, d.base[ti])
	}
}

// DeltasCheckpoint is the deltaAgg's serialized state: the paired
// aggregators, the retained baseline rows, and any buffered
// pre-baseline rows, with floats as IEEE-754 bit patterns. Absent rows
// serialize as JSON null and restore as nil.
type DeltasCheckpoint struct {
	Paired  [][]stats.PairedOnlineState `json:"paired"`
	Base    [][]uint64                  `json:"base"`
	Pending [][][]uint64                `json:"pending,omitempty"`
}

// state captures the aggregator for the checkpoint envelope.
func (d *deltaAgg) state() *DeltasCheckpoint {
	st := &DeltasCheckpoint{
		Paired: make([][]stats.PairedOnlineState, len(d.paired)),
		Base:   make([][]uint64, len(d.base)),
	}
	for si := range d.paired {
		st.Paired[si] = make([]stats.PairedOnlineState, d.nMet)
		for mi := range d.paired[si] {
			st.Paired[si][mi] = d.paired[si][mi].State()
		}
	}
	for ti, row := range d.base {
		st.Base[ti] = floatBits(row)
	}
	if d.bi > 0 {
		st.Pending = make([][][]uint64, len(d.pending))
		for si := 0; si < d.bi; si++ {
			st.Pending[si] = make([][]uint64, d.trials)
			for ti, row := range d.pending[si] {
				st.Pending[si][ti] = floatBits(row)
			}
		}
	}
	return st
}

// checkShape validates the state's shape against a grid of nScen
// scenarios with its baseline at bi, trials trials and nMet metrics, as
// state writes it: nMet paired aggregators per scenario; one baseline
// row per trial; pending rows for every scenario when the baseline is
// not first (one per trial before it, none after), none otherwise; and
// every row nil (a trial not yet aggregated, or failed) or one value
// per metric.
func (st *DeltasCheckpoint) checkShape(nScen, bi, trials, nMet int) error {
	if len(st.Paired) != nScen {
		return fmt.Errorf("sweep: checkpoint delta state covers %d scenarios, run has %d (restart the sweep)",
			len(st.Paired), nScen)
	}
	for si := range st.Paired {
		if len(st.Paired[si]) != nMet {
			return fmt.Errorf("sweep: checkpoint delta state scenario %d carries %d metric aggregators, want %d "+
				"(metric registry changed since the checkpoint was written; restart the sweep)",
				si, len(st.Paired[si]), nMet)
		}
	}
	if len(st.Base) != trials {
		return fmt.Errorf("sweep: checkpoint delta state carries %d baseline rows for %d trials (restart the sweep)",
			len(st.Base), trials)
	}
	wantPending := 0
	if bi > 0 {
		wantPending = nScen
	}
	if len(st.Pending) != wantPending {
		return fmt.Errorf("sweep: checkpoint delta state carries %d pending scenario lists, want %d (restart the sweep)",
			len(st.Pending), wantPending)
	}
	rowsOK := func(rows [][]uint64) bool {
		for _, row := range rows {
			if row != nil && len(row) != nMet {
				return false
			}
		}
		return true
	}
	if !rowsOK(st.Base) {
		return fmt.Errorf("sweep: checkpoint delta state has a baseline row without %d metric values (restart the sweep)", nMet)
	}
	for si, rows := range st.Pending {
		want := 0
		if si < bi {
			want = trials
		}
		if len(rows) != want || !rowsOK(rows) {
			return fmt.Errorf("sweep: checkpoint delta state scenario %d carries %d pending rows, want %d of %d metric values (restart the sweep)",
				si, len(rows), want, nMet)
		}
	}
	return nil
}

// restore rehydrates the aggregator from a checkpoint whose shape
// checkShape has accepted for this run's grid and metric registry.
func (d *deltaAgg) restore(st *DeltasCheckpoint) {
	for si := range st.Paired {
		for mi := range st.Paired[si] {
			d.paired[si][mi] = stats.RestorePairedOnline(st.Paired[si][mi])
		}
	}
	for ti := range st.Base {
		d.base[ti] = bitsFloats(st.Base[ti])
	}
	for si := 0; si < d.bi; si++ {
		for ti, row := range st.Pending[si] {
			d.pending[si][ti] = bitsFloats(row)
		}
	}
}

// floatBits converts a metric row to IEEE bit patterns (nil stays nil).
func floatBits(row []float64) []uint64 {
	if row == nil {
		return nil
	}
	out := make([]uint64, len(row))
	for i, v := range row {
		out[i] = math.Float64bits(v)
	}
	return out
}

// bitsFloats is the inverse of floatBits (nil stays nil).
func bitsFloats(row []uint64) []float64 {
	if row == nil {
		return nil
	}
	out := make([]float64, len(row))
	for i, b := range row {
		out[i] = math.Float64frombits(b)
	}
	return out
}
