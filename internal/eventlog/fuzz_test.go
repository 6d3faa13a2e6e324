package eventlog

import (
	"testing"

	"storagesubsys/internal/failmodel"
)

// FuzzParseLine feeds arbitrary lines to ParseLine. It must never
// panic, and a line it accepts must Render to text that parses back to
// an equal Line: nothing the parser accepts is lost on the way back
// out.
func FuzzParseLine(f *testing.F) {
	res := smallRun(f)
	seeded := map[failmodel.FailureType]bool{}
	for _, e := range res.Events {
		if seeded[e.Type] && !e.Recovered {
			continue
		}
		seeded[e.Type] = true
		for _, m := range Emit(nil, e) {
			f.Add(m.Line(res.Fleet).Render())
		}
	}
	f.Add("Mon Jan  2 15:04:05.5 UTC 2006 [a:info]: x")
	f.Add("Sun Jul 23 05:43:36 GMT+3 2006 [a:info]: x")
	f.Add("Sun Jul 23 05:43:36 XYZ 2006 [scsi.cmd.noMorePaths:error]: Device 8.24: No more paths to device.")
	f.Fuzz(func(t *testing.T, line string) {
		l, err := ParseLine(line)
		if err != nil {
			return
		}
		again, err := ParseLine(l.Render())
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", line, l.Render(), err)
		}
		if !again.Time.Equal(l.Time) || again.Tag != l.Tag || again.Severity != l.Severity || again.Text != l.Text {
			t.Fatalf("%q parsed to %+v, its rendering %q to %+v", line, l, l.Render(), again)
		}
	})
}
