package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestRunAllGoldenDigest pins the bytes of every rendered experiment —
// each Finding's Detail string and the Figure 6 and 7 comparisons
// included — at a small scale with one worker. The analysis layer may
// be restructured freely as long as this digest holds; a deliberate
// change to any rendered number must re-derive it.
func TestRunAllGoldenDigest(t *testing.T) {
	const want = "c4221a45298433c2866aab824302a4f374a5a0ddc4d14993535ab8f3aefb9fbb"
	env := Setup(Config{Scale: 0.1, Seed: 42})
	var sb strings.Builder
	env.RunAll(&sb)
	out := sb.String()
	for _, s := range []string{"Finding 11:", "Disk A-2", "Figure 7: Mid-range"} {
		if !strings.Contains(out, s) {
			t.Fatalf("rendered output lacks %q", s)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != want {
		t.Errorf("RunAll digest %s, want %s", got, want)
	}
}
