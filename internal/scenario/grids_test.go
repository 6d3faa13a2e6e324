package scenario

import (
	"bytes"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"storagesubsys/internal/sweep"
)

// TestBuiltinMatchesLoad: every committed examples/scenarios/*.json
// stem is a built-in grid, and Builtin resolves it to exactly the Spec
// Load parses from the file — so -grid NAME and
// -grid-file examples/scenarios/NAME.json sweep the same configuration,
// digest included.
func TestBuiltinMatchesLoad(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed scenario files found (%v)", err)
	}
	var stems []string
	for _, path := range paths {
		stem := strings.TrimSuffix(filepath.Base(path), ".json")
		stems = append(stems, stem)
		t.Run(stem, func(t *testing.T) {
			want, err := Load(path)
			if err != nil {
				t.Fatalf("Load(%s): %v", path, err)
			}
			got, err := Builtin(stem)
			if err != nil {
				t.Fatalf("Builtin(%q): %v", stem, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Builtin(%q) differs from Load(%s):\n builtin: %+v\n file:    %+v", stem, path, got, want)
			}
		})
	}
	if names := BuiltinNames(); !slices.Equal(names, stems) {
		t.Errorf("BuiltinNames() = %v, want the committed stems %v", names, stems)
	}
}

// TestBuiltinRejectsUnknown: only the embedded stems resolve. A path,
// a file name, or a traversal is refused with an error that lists the
// valid names and points at -grid-file.
func TestBuiltinRejectsUnknown(t *testing.T) {
	for _, name := range []string{"", "bogus", "ops.json", "../ops", "examples/scenarios/ops", "./ops"} {
		spec, err := Builtin(name)
		if err == nil || spec != nil {
			t.Errorf("Builtin(%q) = (%v, %v), want an error", name, spec, err)
			continue
		}
		for _, want := range []string{"unknown grid", "-grid-file", strings.Join(BuiltinNames(), ", ")} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Builtin(%q) error %q does not mention %q", name, err, want)
			}
		}
	}
}

// TestFileGridByteIdentity runs real sweeps: every built-in grid must
// produce the same JSON bytes at workers 1 and workers 4. Trials and
// scale are pinned small, as explicit -trials/-scale flags would, to
// keep this tier-1 affordable.
func TestFileGridByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every grid; skipped with -short")
	}
	for _, name := range BuiltinNames() {
		spec, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, workers := range []int{1, 4} {
			cfg := spec.Config(sweep.Config{Seed: 42})
			cfg.Trials, cfg.Scale, cfg.Workers = 2, 0.005, workers
			res, err := sweep.Execute(cfg, nil, nil)
			if err != nil {
				t.Fatalf("grid %s at %d workers: %v", name, workers, err)
			}
			var got bytes.Buffer
			if err := res.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got.Bytes()
			} else if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("grid %s: sweep at %d workers diverged from the 1-worker bytes", name, workers)
			}
		}
	}
}
