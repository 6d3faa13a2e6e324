package sweep

// Sweep checkpointing: the crash-safety substrate behind cmd/sweep
// -checkpoint/-resume and the nightly full-scale sweep. The collector
// periodically serializes its aggregation state — per-scenario Welford
// moments, quantile reservoirs (sample, stream position, and RNG
// state), trial-0 point vectors, the completed-trial watermark, and
// the trial-failure log — to a versioned, digest-protected JSON file.
// Every float crosses the boundary as its IEEE-754 bit pattern, so a
// resumed sweep continues the aggregation recurrences bit-identically
// and produces byte-identical Result JSON to an uninterrupted run (the
// crash/resume extension of the worker-count-equivalence contract,
// enforced by TestResumeByteIdentity and CI's recovery-smoke job).
//
// Durability model: writes go to a temporary file which is renamed
// over the target after the previous checkpoint (if any) is rotated to
// "<path>.prev". A crash mid-write therefore never destroys the last
// good checkpoint, and a torn write that does reach the target (a
// lying filesystem, or an injected truncation fault) is detected on
// load by the SHA-256 digest; RecoverCheckpoint then falls back to the
// rotated predecessor. Resuming from an older checkpoint only
// recomputes more trials — the result bytes are unchanged.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"storagesubsys/internal/stats"
)

const (
	checkpointFormat = "sweep-checkpoint"
	// checkpointVersion is bumped whenever the payload schema or the
	// aggregation semantics it captures change incompatibly.
	checkpointVersion = 1
)

// ErrCheckpointCorrupt reports a checkpoint file whose payload does
// not match its recorded digest — a truncated or torn write.
var ErrCheckpointCorrupt = errors.New("sweep: checkpoint digest mismatch (truncated or corrupt write)")

// CheckpointConfig is the identity subset of a sweep Config: the
// fields that determine every trial value and aggregation step.
// Worker counts, budgets, interrupts and checkpoint cadence are
// deliberately excluded — they affect wall-clock and stopping points,
// never the math, so a budget-interrupted sweep can be resumed to
// completion without a budget, or with a different worker count.
type CheckpointConfig struct {
	Trials        int        `json:"trials"`
	Seed          int64      `json:"seed"`
	Scale         float64    `json:"scale"`
	Findings      bool       `json:"findings"`
	ReservoirSize int        `json:"reservoirSize"`
	Scenarios     []Scenario `json:"scenarios"`
	// GridDigest fingerprints the scenario file the grid came from
	// (empty for grids built in code; omitted from the JSON then, so
	// pre-digest checkpoints keep loading). The digest is identity even
	// though equal scenarios compute equal results: a resumed sweep's
	// report is labeled and joined (assertion bands) by its scenario
	// file, so silently continuing under a different file would attach
	// the wrong artifact to the result.
	GridDigest string `json:"gridDigest,omitempty"`
	// Variance is the base mode of the removed variance knob. The
	// engine never writes it; validateCheckpoint refuses a checkpoint
	// that names a removed mode (see VarianceNone).
	Variance string `json:"variance,omitempty"`
	// Deltas records whether the paired-delta aggregators ride this
	// checkpoint — identity because resuming a -deltas sweep from a
	// checkpoint without delta state (or vice versa) cannot reproduce
	// the uninterrupted bytes. Omitted when false.
	Deltas bool `json:"deltas,omitempty"`
}

// checkpointIdentity resolves a Config to its checkpoint identity,
// applying the same normalizations Execute applies (minimum trial
// count, the engine's reservoir capacity).
func checkpointIdentity(cfg Config) CheckpointConfig {
	trials := cfg.Trials
	if trials < 1 {
		trials = 1
	}
	return CheckpointConfig{
		Trials:        trials,
		Seed:          cfg.Seed,
		Scale:         cfg.Scale,
		Findings:      cfg.Findings,
		ReservoirSize: reservoirSize,
		Scenarios:     cfg.Scenarios,
		GridDigest:    cfg.GridDigest,
		Deltas:        cfg.Deltas,
	}
}

// equal reports whether two identities match scenario for scenario.
func (c CheckpointConfig) equal(o CheckpointConfig) bool {
	return c.Trials == o.Trials && c.Seed == o.Seed && c.Scale == o.Scale &&
		c.Findings == o.Findings && c.ReservoirSize == o.ReservoirSize &&
		c.GridDigest == o.GridDigest && c.Deltas == o.Deltas &&
		slices.Equal(c.Scenarios, o.Scenarios)
}

// ScenarioCheckpoint is one scenario's serialized aggregation state,
// indexed like the Metrics registry.
type ScenarioCheckpoint struct {
	Onlines    []stats.OnlineState    `json:"onlines"`
	Reservoirs []stats.ReservoirState `json:"reservoirs"`
	// Points holds the trial-0 metric vector as IEEE-754 bit patterns
	// (NaN until trial 0 has been aggregated).
	Points []uint64 `json:"points"`
}

// CheckpointState is a sweep's complete resumable state: the config
// identity it belongs to, the completed-trial watermark (trials are
// aggregated in global job order, so state is always a contiguous
// prefix), the failure log, and every aggregator.
type CheckpointState struct {
	Config    CheckpointConfig     `json:"config"`
	NextJob   int                  `json:"nextJob"`
	Failures  []TrialFailure       `json:"failures,omitempty"`
	Scenarios []ScenarioCheckpoint `json:"scenarios"`
	// Deltas carries the paired-delta aggregation state when the sweep
	// runs with Config.Deltas (see deltas.go); omitted otherwise, so
	// pre-delta checkpoints keep loading byte-compatibly.
	Deltas *DeltasCheckpoint `json:"deltas,omitempty"`
}

// checkpointEnvelope is the on-disk frame: format tag, version, and a
// hex SHA-256 of the verbatim payload bytes.
type checkpointEnvelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// Save writes the state to path: temp file, previous-checkpoint
// rotation to path+".prev", then rename. wrap, if non-nil, wraps the
// temp file's writer — the fault-injection seam internal/faultinject
// uses to model torn writes; production callers pass nil.
func (st *CheckpointState) Save(path string, wrap func(io.Writer) io.Writer) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("sweep: encoding checkpoint: %w", err)
	}
	sum := sha256.Sum256(payload)
	env := checkpointEnvelope{
		Format:  checkpointFormat,
		Version: checkpointVersion,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	}
	data, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("sweep: encoding checkpoint envelope: %w", err)
	}
	data = append(data, '\n')

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("sweep: writing checkpoint: %w", err)
	}
	var w io.Writer = f
	if wrap != nil {
		w = wrap(f)
	}
	_, werr := w.Write(data)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp)
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("sweep: writing checkpoint %s: %w", tmp, werr)
	}
	// Rotate the previous good checkpoint aside before renaming the new
	// one into place: if the new file turns out torn (digest mismatch on
	// load), RecoverCheckpoint can still resume from the predecessor.
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+".prev"); err != nil {
			os.Remove(tmp)
			return fmt.Errorf("sweep: rotating previous checkpoint: %w", err)
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sweep: installing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and verifies one checkpoint file: the envelope
// must carry the expected format and version, and the payload must
// match its digest (ErrCheckpointCorrupt otherwise).
func LoadCheckpoint(path string) (*CheckpointState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: reading checkpoint: %w", err)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("sweep: checkpoint %s: %w: %v", path, ErrCheckpointCorrupt, err)
	}
	if env.Format != checkpointFormat {
		return nil, fmt.Errorf("sweep: %s is not a sweep checkpoint (format %q)", path, env.Format)
	}
	if env.Version != checkpointVersion {
		return nil, fmt.Errorf("sweep: checkpoint %s has version %d, this binary writes %d; restart the sweep",
			path, env.Version, checkpointVersion)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, fmt.Errorf("sweep: checkpoint %s: %w", path, ErrCheckpointCorrupt)
	}
	st := &CheckpointState{}
	if err := json.Unmarshal(env.Payload, st); err != nil {
		return nil, fmt.Errorf("sweep: checkpoint %s payload: %w", path, err)
	}
	if st.NextJob < 0 || len(st.Scenarios) != len(st.Config.Scenarios) {
		return nil, fmt.Errorf("sweep: checkpoint %s is internally inconsistent (watermark %d, %d scenario states for %d scenarios)",
			path, st.NextJob, len(st.Scenarios), len(st.Config.Scenarios))
	}
	return st, nil
}

// RecoverCheckpoint loads the checkpoint at path, falling back to the
// rotated predecessor path+".prev" when the primary is truncated or
// corrupt. It returns the state and the file it actually came from;
// resuming from the older predecessor only recomputes more trials, it
// never changes the result bytes.
func RecoverCheckpoint(path string) (*CheckpointState, string, error) {
	st, err := LoadCheckpoint(path)
	if err == nil {
		return st, path, nil
	}
	if !errors.Is(err, ErrCheckpointCorrupt) {
		return nil, "", err
	}
	prev := path + ".prev"
	st2, err2 := LoadCheckpoint(prev)
	if err2 != nil {
		return nil, "", fmt.Errorf("%w (and no usable predecessor: %v)", err, err2)
	}
	return st2, prev, nil
}

// validateCheckpoint checks the state against the run's identity and
// every size the restore allocates from or indexes with against the
// payload that carries it, before anything is allocated: a checkpoint
// read from disk is untrusted input.
func validateCheckpoint(st *CheckpointState, ident CheckpointConfig) error {
	if err := checkConfigVariance(st.Config.Variance, st.Config.Scenarios); err != nil {
		return fmt.Errorf("sweep: checkpoint refused: %w; start fresh without -resume", err)
	}
	// The scenario-file digest gets its own error: every other identity
	// field appears in the generic message below, but a digest mismatch
	// with otherwise-equal numbers means the scenario *file* changed —
	// or the grid moved between a file and a grid built in code — and
	// the fix is different (restore the original file, or start fresh).
	if st.Config.GridDigest != ident.GridDigest {
		describe := func(d string) string {
			if d == "" {
				return "a grid without a scenario file"
			}
			return "scenario file digest " + d[:min(len(d), 12)] + "…"
		}
		return fmt.Errorf("sweep: checkpoint was taken under a different scenario file "+
			"(checkpoint: %s; run: %s); resume with the original scenario file, or start fresh without -resume",
			describe(st.Config.GridDigest), describe(ident.GridDigest))
	}
	if !st.Config.equal(ident) {
		return fmt.Errorf("sweep: checkpoint was taken for a different sweep configuration "+
			"(checkpoint: %d trials, seed %d, scale %g, %d scenarios; run: %d trials, seed %d, scale %g, %d scenarios); "+
			"rerun with the original flags or start fresh without -resume",
			st.Config.Trials, st.Config.Seed, st.Config.Scale, len(st.Config.Scenarios),
			ident.Trials, ident.Seed, ident.Scale, len(ident.Scenarios))
	}
	nScen, nMet := len(ident.Scenarios), len(Metrics)
	if nScen > 0 && ident.Trials > math.MaxInt/nScen {
		return fmt.Errorf("sweep: checkpoint claims %d trials of %d scenarios, more jobs than an int counts", ident.Trials, nScen)
	}
	if jobs := ident.Trials * nScen; st.NextJob < 0 || st.NextJob > jobs {
		return fmt.Errorf("sweep: checkpoint watermark %d is outside the sweep's %d trials", st.NextJob, jobs)
	}
	if len(st.Scenarios) != nScen {
		return fmt.Errorf("sweep: checkpoint has %d scenario states, run has %d", len(st.Scenarios), nScen)
	}
	for si, sc := range st.Scenarios {
		if len(sc.Onlines) != nMet || len(sc.Reservoirs) != nMet || len(sc.Points) != nMet {
			return fmt.Errorf("sweep: checkpoint scenario %d carries %d/%d/%d metric states, want %d "+
				"(metric registry changed since the checkpoint was written; restart the sweep)",
				si, len(sc.Onlines), len(sc.Reservoirs), len(sc.Points), nMet)
		}
		for mi, r := range sc.Reservoirs {
			if r.Capacity != ident.ReservoirSize {
				return fmt.Errorf("sweep: checkpoint scenario %d metric %d holds a reservoir of capacity %d, the run's is %d (restart the sweep)",
					si, mi, r.Capacity, ident.ReservoirSize)
			}
		}
	}
	if ident.Deltas {
		// Identity equality above guarantees the checkpoint was taken
		// with Deltas on, so the state must be present.
		if st.Deltas == nil {
			return fmt.Errorf("sweep: checkpoint claims delta aggregation but carries no delta state; restart the sweep")
		}
		return st.Deltas.checkShape(nScen, BaselineIndex(ident.Scenarios), ident.Trials, nMet)
	}
	return nil
}
