// Package predict implements the paper's stated future-work direction:
// "Another future direction is to design storage failure prediction
// algorithms based on component errors."
//
// The predictor consumes the same raw support-log stream the study
// mines (internal/eventlog): lower-layer error and warning messages
// (FC timeouts, SCSI retries, medium errors, slow-I/O warnings) are
// treated as precursors, and a disk accumulating Threshold precursor
// messages within Window is flagged. Predictions are scored against
// the RAID-layer failure events that actually follow within Horizon,
// yielding the precision/recall trade-off a deployment would see.
package predict

import (
	"sort"
	"time"

	"storagesubsys/internal/eventlog"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// Config tunes the sliding-window precursor predictor.
type Config struct {
	// Window is how far back precursor messages count toward the
	// threshold.
	Window time.Duration
	// Horizon is how soon after a prediction a real failure must occur
	// for the prediction to count as a hit.
	Horizon time.Duration
	// Threshold is the number of precursor messages within Window that
	// triggers a prediction.
	Threshold int
}

// DefaultConfig returns a conservative starting point: three precursor
// messages within 24 hours predict a failure within the next week.
func DefaultConfig() Config {
	return Config{Window: 24 * time.Hour, Horizon: 7 * 24 * time.Hour, Threshold: 3}
}

// Prediction is one raised warning.
type Prediction struct {
	Serial string
	At     time.Time
	// Hit reports whether a RAID-layer failure of the same disk
	// followed within the horizon.
	Hit bool
	// LeadTime is the time from prediction to the failure (hits only).
	LeadTime time.Duration
}

// Evaluation scores a predictor run.
type Evaluation struct {
	Predictions []Prediction
	// Failures is the number of RAID-layer failures in the stream.
	Failures int
	// Detected is the number of failures preceded by a prediction
	// within the horizon.
	Detected int
	// FalseAlarms is the number of predictions not followed by a
	// failure within the horizon.
	FalseAlarms int
}

// Precision returns hits / predictions (NaN-free: 0 when no
// predictions).
func (e Evaluation) Precision() float64 {
	if len(e.Predictions) == 0 {
		return 0
	}
	return float64(len(e.Predictions)-e.FalseAlarms) / float64(len(e.Predictions))
}

// Recall returns detected failures / all failures (0 when no failures).
func (e Evaluation) Recall() float64 {
	if e.Failures == 0 {
		return 0
	}
	return float64(e.Detected) / float64(e.Failures)
}

// isPrecursor reports whether a message is a below-RAID error signal
// attributable to a disk.
func isPrecursor(m eventlog.Message) bool {
	if m.Serial == "" && m.Device == "" {
		return false
	}
	if _, isRAID := eventlog.FailureTypeForTag(m.Tag); isRAID {
		return false
	}
	return m.Severity == eventlog.Error || m.Severity == eventlog.Warning
}

// Evaluate runs the sliding-window predictor over a message stream and
// scores it against the RAID-layer failures in the same stream.
// Messages are keyed by disk serial (falling back to device address
// when a message carries no serial).
func Evaluate(msgs []eventlog.Message, cfg Config) Evaluation {
	type rec struct {
		t         time.Time
		precursor bool
		failure   bool
	}
	byDisk := make(map[string][]rec)
	key := func(m eventlog.Message) string {
		if m.Serial != "" {
			return m.Serial
		}
		return "dev:" + m.Device
	}
	for _, m := range msgs {
		_, isRAID := eventlog.FailureTypeForTag(m.Tag)
		if !isRAID && !isPrecursor(m) {
			continue
		}
		byDisk[key(m)] = append(byDisk[key(m)], rec{t: m.Time, precursor: !isRAID, failure: isRAID})
	}

	var eval Evaluation
	for serial, recs := range byDisk {
		sort.Slice(recs, func(i, j int) bool { return recs[i].t.Before(recs[j].t) })

		// Raise predictions: threshold precursors within the window,
		// with re-arm after each prediction to avoid duplicates.
		var predTimes []time.Time
		var windowTimes []time.Time
		armed := true
		for _, rc := range recs {
			if rc.failure {
				armed = true // after a failure the detector re-arms
				windowTimes = windowTimes[:0]
				continue
			}
			windowTimes = append(windowTimes, rc.t)
			cut := rc.t.Add(-cfg.Window)
			for len(windowTimes) > 0 && windowTimes[0].Before(cut) {
				windowTimes = windowTimes[1:]
			}
			if armed && len(windowTimes) >= cfg.Threshold {
				predTimes = append(predTimes, rc.t)
				armed = false
			}
		}

		// Score against this disk's failures.
		var failTimes []time.Time
		for _, rc := range recs {
			if rc.failure {
				failTimes = append(failTimes, rc.t)
			}
		}
		eval.Failures += len(failTimes)

		matched := make([]bool, len(failTimes))
		for _, pt := range predTimes {
			p := Prediction{Serial: serial, At: pt}
			for i, ft := range failTimes {
				if matched[i] {
					continue
				}
				if !ft.Before(pt) && ft.Sub(pt) <= cfg.Horizon {
					p.Hit = true
					p.LeadTime = ft.Sub(pt)
					matched[i] = true
					break
				}
			}
			if !p.Hit {
				eval.FalseAlarms++
			}
			eval.Predictions = append(eval.Predictions, p)
		}
		for _, m := range matched {
			if m {
				eval.Detected++
			}
		}
	}
	sort.Slice(eval.Predictions, func(i, j int) bool {
		return eval.Predictions[i].At.Before(eval.Predictions[j].At)
	})
	return eval
}

// InjectTransientNoise adds standalone transient error messages —
// lower-layer errors that never escalate to a failure — to a message
// stream, modelling the recovered retries real logs are full of. Rate
// is per disk-year over the study window; the result is time-sorted.
// It makes predictor evaluation honest: without noise, every precursor
// chain trivially precedes a failure.
func InjectTransientNoise(f *fleet.Fleet, msgs []eventlog.Message, ratePerDiskYear float64, r *stats.RNG) []eventlog.Message {
	out := append([]eventlog.Message(nil), msgs...)
	for _, d := range f.Disks {
		years := d.ResidencyYears()
		if years <= 0 {
			continue
		}
		n := r.Poisson(ratePerDiskYear * years)
		for i := 0; i < n; i++ {
			at := d.Install + simtime.Seconds(r.Float64()*float64(d.Remove-d.Install))
			shelf := f.Shelves[d.Shelf]
			out = append(out, eventlog.Message{
				Time:     simtime.ToWall(at),
				Tag:      "scsi.cmd.transientRetry",
				Severity: eventlog.Warning,
				Device:   eventlog.DeviceAddress(shelf.Index, d.Slot),
				Serial:   fleet.Serial(d.ID),
				Text:     "Device retried a transient error; recovered.",
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}
