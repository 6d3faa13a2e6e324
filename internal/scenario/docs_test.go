package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"storagesubsys/internal/paperref"
	"storagesubsys/internal/sweep"
)

// TestScenariosDocCurrent is the SCENARIOS.md staleness check: every
// JSON field of the scenario types (Spec, Assertion, and the embedded
// sweep.Scenario knobs) and every sweep metric name must appear
// backticked in SCENARIOS.md. Adding a field or metric without
// documenting it fails here; the reflection walk means the test needs
// no per-field maintenance.
func TestScenariosDocCurrent(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "SCENARIOS.md"))
	if err != nil {
		t.Fatalf("reading SCENARIOS.md (the scenario-file format reference): %v", err)
	}
	doc := string(data)

	missing := func(kind, name string) {
		t.Errorf("SCENARIOS.md does not document %s `%s` (add it to the reference table)", kind, name)
	}
	for _, typ := range []struct {
		kind string
		t    reflect.Type
	}{
		{"spec field", reflect.TypeOf(Spec{})},
		{"assertion field", reflect.TypeOf(Assertion{})},
		{"scenario knob", reflect.TypeOf(sweep.Scenario{})},
	} {
		for i := 0; i < typ.t.NumField(); i++ {
			f := typ.t.Field(i)
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if tag == "" || tag == "-" {
				t.Errorf("%s.%s has no json tag; scenario files cannot express it and SCENARIOS.md cannot document it",
					typ.t.Name(), f.Name)
				continue
			}
			if !strings.Contains(doc, fmt.Sprintf("`%s`", tag)) {
				missing(typ.kind, tag)
			}
		}
	}

	for _, m := range sweep.Metrics {
		if !strings.Contains(doc, fmt.Sprintf("`%s`", m.Name)) {
			missing("metric", m.Name)
		}
	}

	// The three unit names form the assertion unit vocabulary.
	for _, u := range []string{"fraction", "ratio", "count"} {
		if _, ok := paperref.ParseUnit(u); !ok {
			t.Fatalf("unit vocabulary lost %q", u)
		}
		if !strings.Contains(doc, fmt.Sprintf("`%s`", u)) {
			missing("unit", u)
		}
	}
}
