package sweep

// Partial-result derivation: turning a CheckpointState — periodic or
// final, loaded from disk or handed to Config.OnCheckpoint — into the
// Result of its completed trial prefix without running anything. This
// is the read side of the control plane's streaming contract: sweepd's
// status endpoint serves per-scenario TrialsDone, means, and
// tightening CIs straight from the latest checkpoint, and because the
// derivation restores the very aggregators the collector would have
// held and folds them through the same summarize path, a partial
// summary can never disagree with what the live sweep would report at
// that watermark. The PartialResult of a completed run's final
// checkpoint is byte-identical to the run's own Result.

// config reconstructs the identity subset of the sweep Config the
// checkpoint was taken under. The identity-free fields (workers,
// budgets, hooks, seams) are zero: none of them affect any derived
// value. The reservoir capacity is the engine's constant, so a state
// recorded under another capacity fails the identity check on restore.
func (c CheckpointConfig) config() Config {
	return Config{
		Trials:     c.Trials,
		Seed:       c.Seed,
		Scale:      c.Scale,
		Findings:   c.Findings,
		Scenarios:  c.Scenarios,
		GridDigest: c.GridDigest,
		Deltas:     c.Deltas,
	}
}

// PartialResult derives the Result of the checkpoint's completed
// prefix: fresh aggregators are rehydrated from the serialized state
// and folded through the same summarize path Execute uses, so every
// summary value — means, CIs, quantiles, TrialsDone, the Partial flag,
// the failure log, the Deltas section — is exactly what an Execute run
// stopped at this watermark would have returned. Scenario TrialsDone
// is monotonically non-decreasing across successive checkpoints of one
// sweep (trials are aggregated in global order, so state is always a
// contiguous prefix).
func (st *CheckpointState) PartialResult() (*Result, error) {
	cfg := st.Config.config()
	ident := checkpointIdentity(cfg)
	if err := validateCheckpoint(st, ident); err != nil {
		return nil, err
	}
	nScen := len(ident.Scenarios)
	runs := make([]scenarioRun, nScen)
	for i, s := range ident.Scenarios {
		runs[i] = newScenarioRun(s, cfg)
	}
	onlines, reservoirs, points, deltas := newAggregators(ident)
	next, failures, err := restoreCheckpoint(st, ident, onlines, reservoirs, points, deltas)
	if err != nil {
		return nil, err
	}
	return summarize(cfg, ident.Trials, runs, onlines, reservoirs, points, next, failures, deltas), nil
}
