package stats

// This file provides bit-exact state capture and restore for the
// streaming aggregators (Online, Reservoir) and the RNG itself — the
// substrate behind internal/sweep's crash-safe checkpointing. Every
// float crosses the serialization boundary as its IEEE-754 bit pattern
// (math.Float64bits), so a Restore* round trip is exact for every
// value including NaN and the infinities, and an aggregator restored
// mid-stream continues bit-identically to one that never stopped.
// encoding/json preserves uint64 exactly when decoding into a uint64
// field, which makes the states safe to embed in JSON checkpoints.

import (
	"fmt"
	"math"
)

// RNGState is the serializable identity and position of an RNG: the
// stream key plus the four xoshiro256++ state words.
type RNGState struct {
	Key uint64 `json:"key"`
	S0  uint64 `json:"s0"`
	S1  uint64 `json:"s1"`
	S2  uint64 `json:"s2"`
	S3  uint64 `json:"s3"`
}

// State captures the RNG's current stream identity and draw position.
func (r *RNG) State() RNGState {
	return RNGState{Key: r.key, S0: r.s0, S1: r.s1, S2: r.s2, S3: r.s3}
}

// RestoreRNG reconstructs an RNG from a captured state. The restored
// stream continues exactly where the captured one stood: same key,
// same future draws.
func RestoreRNG(st RNGState) *RNG {
	return &RNG{key: st.Key, s0: st.S0, s1: st.S1, s2: st.S2, s3: st.S3}
}

// OnlineState is the serializable state of an Online accumulator, with
// floats as IEEE-754 bit patterns.
type OnlineState struct {
	N    int    `json:"n"`
	Mean uint64 `json:"mean"`
	M2   uint64 `json:"m2"`
	Min  uint64 `json:"min"`
	Max  uint64 `json:"max"`
}

// State captures the accumulator.
func (o *Online) State() OnlineState {
	return OnlineState{
		N:    o.n,
		Mean: math.Float64bits(o.mean),
		M2:   math.Float64bits(o.m2),
		Min:  math.Float64bits(o.min),
		Max:  math.Float64bits(o.max),
	}
}

// RestoreOnline reconstructs an accumulator from a captured state;
// subsequent Push calls continue the Welford recurrence bit-identically
// to an accumulator that was never serialized.
func RestoreOnline(st OnlineState) Online {
	return Online{
		n:    st.N,
		mean: math.Float64frombits(st.Mean),
		m2:   math.Float64frombits(st.M2),
		min:  math.Float64frombits(st.Min),
		max:  math.Float64frombits(st.Max),
	}
}

// ReservoirState is the serializable state of a Reservoir: the held
// sample (IEEE bits, in retention order), the stream position, and the
// replacement RNG's full state.
type ReservoirState struct {
	Capacity int      `json:"capacity"`
	Seen     int      `json:"seen"`
	RNG      RNGState `json:"rng"`
	Xs       []uint64 `json:"xs"`
}

// State captures the reservoir.
func (r *Reservoir) State() ReservoirState {
	st := ReservoirState{
		Capacity: cap(r.xs),
		Seen:     r.seen,
		RNG:      r.rng.State(),
		Xs:       make([]uint64, len(r.xs)),
	}
	for i, x := range r.xs {
		st.Xs[i] = math.Float64bits(x)
	}
	return st
}

// Restore overwrites the reservoir with a captured state, reusing its
// own sample storage when the captured capacity matches. Replacement
// decisions resume from the captured RNG position, so a restored
// reservoir fed the same remaining stream retains exactly the sample
// an uninterrupted one would. A malformed state (non-positive
// capacity, more samples than capacity, fewer observations than
// samples) is refused and leaves the reservoir unchanged.
func (r *Reservoir) Restore(st ReservoirState) error {
	if st.Capacity <= 0 {
		return fmt.Errorf("stats: reservoir state capacity %d must be positive", st.Capacity)
	}
	if len(st.Xs) > st.Capacity {
		return fmt.Errorf("stats: reservoir state holds %d samples, above its capacity %d", len(st.Xs), st.Capacity)
	}
	if st.Seen < len(st.Xs) {
		return fmt.Errorf("stats: reservoir state saw %d observations but holds %d", st.Seen, len(st.Xs))
	}
	if cap(r.xs) != st.Capacity {
		r.xs = make([]float64, 0, st.Capacity)
	}
	r.xs = r.xs[:len(st.Xs)]
	for i, b := range st.Xs {
		r.xs[i] = math.Float64frombits(b)
	}
	r.seen, r.rng = st.Seen, *RestoreRNG(st.RNG)
	return nil
}
