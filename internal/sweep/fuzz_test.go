package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointPayload drives LoadCheckpoint → PartialResult past the
// digest: the fuzzed bytes are the payload of a well-formed envelope
// whose SHA-256 matches, so hostile contents reach the validation
// behind sweepd's status endpoint. Each input must come back as an
// error or a Result, never a panic. The seeds are real mid-run
// checkpoints: a plain sweep's, and a paired-delta sweep's whose
// baseline is not scenario 0, so pending delta rows ride along.
func FuzzCheckpointPayload(f *testing.F) {
	plain := Config{Trials: 2, Seed: 42, Scale: 0.004, Workers: 1, Scenarios: grid("smoke"), CheckpointEvery: 1}
	var seeds []*CheckpointState
	plain.OnCheckpoint = func(st *CheckpointState) {
		if st.NextJob == 3 {
			seeds = append(seeds, st)
		}
	}
	execute(f, plain)
	_, deltas := midRunCheckpoint(f, baselineSecond(), 4)
	if deltas.Deltas.Pending[0][0] == nil {
		f.Fatal("test setup: the delta seed carries no pending row")
	}
	seeds = append(seeds, deltas)

	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	partial := func(t testing.TB, payload []byte) (*Result, error) {
		sum := sha256.Sum256(payload)
		env := fmt.Sprintf(`{"format":%q,"version":%d,"sha256":%q,"payload":%s}`,
			checkpointFormat, checkpointVersion, hex.EncodeToString(sum[:]), payload)
		if err := os.WriteFile(path, []byte(env), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := LoadCheckpoint(path)
		if err != nil {
			return nil, err
		}
		return st.PartialResult()
	}
	for _, st := range seeds {
		payload, err := json.Marshal(st)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := partial(f, payload); err != nil {
			f.Fatalf("real checkpoint refused: %v", err)
		}
		f.Add(payload)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"config":{"trials":1152921504606846976,"deltas":true,"scenarios":[{"name":"baseline"}]},"scenarios":[{}]}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		res, err := partial(t, payload)
		if err != nil {
			return
		}
		if res == nil {
			t.Fatal("PartialResult returned neither a Result nor an error")
		}
		_ = res.WriteJSON(io.Discard)
	})
}

// FuzzDecodeResult drives DecodeResult, the strict reader of result
// JSON behind cmd/expreport -in and sweepd's stored results. Each input
// must come back as an error or a Result; an accepted Result must
// survive WriteJSON → DecodeResult and re-encode to the same bytes.
// The seeds are real results: a paired-delta sweep's and a
// budget-stopped partial one's.
func FuzzDecodeResult(f *testing.F) {
	deltas := Config{Trials: 2, Seed: 42, Scale: 0.004, Workers: 1, Scenarios: grid("smoke"), Deltas: true}
	partial := Config{Trials: 2, Seed: 42, Scale: 0.004, Workers: 1, Scenarios: grid("smoke"), BudgetTrials: 3}
	for _, cfg := range []Config{deltas, partial} {
		var buf bytes.Buffer
		if err := execute(f, cfg).WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		if _, err := DecodeResult(buf.Bytes()); err != nil {
			f.Fatalf("real result refused: %v", err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"trials":1,"scenarios":[{"scenario":{"name":"a"}}]} x`))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := res.WriteJSON(&first); err != nil {
			t.Fatalf("accepted result does not encode: %v", err)
		}
		again, err := DecodeResult(first.Bytes())
		if err != nil {
			t.Fatalf("re-encoded result refused: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the bytes:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
