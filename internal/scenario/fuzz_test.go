package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"storagesubsys/internal/sweep"
)

// FuzzParse drives the strict JSON loader with arbitrary bytes: it
// must either return a parsed, Validate-clean spec or a single-line
// error — never panic, and never accept a spec its own validator
// rejects. The seed corpus is every committed example scenario plus
// every malformed fixture, so plain `go test` already exercises both
// sides of the contract.
func FuzzParse(f *testing.F) {
	for _, dir := range []string{
		filepath.Join("..", "..", "examples", "scenarios"),
		filepath.Join("testdata", "invalid"),
	} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) != ".json" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"name": "f", "scenarios": [{"name": "baseline"}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	// Variance-knob corpus: the deltas toggle, the one accepted
	// per-scenario mode, and the removed modes at both levels (an
	// unknown top-level field, a positional per-scenario rejection) so
	// the fuzzer starts on both sides of each rule.
	f.Add([]byte(`{"name": "f", "trials": 8, "deltas": true, "scenarios": [{"name": "baseline"}, {"name": "b", "variance": "none"}]}`))
	f.Add([]byte(`{"name": "f", "variance": "antithetic", "scenarios": [{"name": "baseline"}]}`))
	f.Add([]byte(`{"name": "f", "trials": 9, "scenarios": [{"name": "b", "variance": "antithetic"}]}`))
	f.Add([]byte(`{"name": "f", "scenarios": [{"name": "baseline", "variance": "stratified"}]}`))
	f.Add([]byte(`{"name": "f", "deltas": true, "scenarios": [{"name": "b", "variance": "quasi"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data, "fuzz.json")
		if err != nil {
			for _, c := range err.Error() {
				if c == '\n' {
					t.Fatalf("multi-line error: %q", err)
				}
			}
			return
		}
		// An accepted spec must be internally consistent: it re-validates,
		// digests deterministically, and produces a usable config.
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("Parse accepted a spec Validate rejects: %v", verr)
		}
		if spec.Digest() != spec.Digest() {
			t.Fatal("digest is not deterministic")
		}
		cfg := spec.Config(sweep.Config{Trials: 20, Seed: 42, Scale: 0.25})
		if len(cfg.Scenarios) == 0 {
			t.Fatal("accepted spec produced a config with no scenarios")
		}
	})
}
