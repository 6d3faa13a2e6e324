package sweep

// Partial-result derivation: turning a CheckpointState — periodic or
// final, loaded from disk or handed to Config.OnCheckpoint — into the
// Result of its completed trial prefix without running anything. This
// is the read side of the control plane's streaming contract: sweepd's
// status endpoint serves per-scenario TrialsDone, means, and
// tightening CIs straight from the latest checkpoint, and because the
// derivation restores the very collector the live sweep would have
// held and summarizes it the same way, a partial summary can never
// disagree with what the live sweep would report at that watermark.
// The PartialResult of a completed run's final checkpoint is
// byte-identical to the run's own Result.

// PartialResult derives the Result of the checkpoint's completed
// prefix: a fresh collector is restored from the serialized state and
// summarized exactly as Execute summarizes its own, so every summary
// value — means, CIs, quantiles, TrialsDone, the Partial flag, the
// failure log, the Deltas section — is exactly what an Execute run
// stopped at this watermark would have returned. Scenario TrialsDone
// is monotonically non-decreasing across successive checkpoints of one
// sweep (trials are aggregated in global order, so state is always a
// contiguous prefix).
func (st *CheckpointState) PartialResult() (*Result, error) {
	// The identity Execute would resolve for this sweep: the engine's
	// trial minimum and reservoir capacity, so a state recorded under
	// others is refused.
	ident := st.Config
	ident.Trials, ident.ReservoirSize = max(ident.Trials, 1), reservoirSize
	if err := validateCheckpoint(st, ident); err != nil {
		return nil, err
	}
	c := newCollector(ident)
	if err := c.restore(st); err != nil {
		return nil, err
	}
	return c.result(), nil
}
