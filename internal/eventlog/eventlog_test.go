package eventlog

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

var cachedRun *sim.Result

func smallRun(t testing.TB) *sim.Result {
	t.Helper()
	if cachedRun == nil {
		f := fleet.BuildDefault(0.01, 21)
		cachedRun = sim.Run(f, failmodel.DefaultParams(), 22)
	}
	return cachedRun
}

func TestRenderParseRoundTrip(t *testing.T) {
	msg := Line{
		Time:     time.Date(2006, 7, 23, 5, 43, 36, 0, time.UTC),
		Tag:      "scsi.cmd.noMorePaths",
		Severity: Error,
		Text:     "Device 8.24: No more paths to device. All retries have failed.",
	}
	line := msg.Render()
	got, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(msg.Time) {
		t.Errorf("time %v, want %v", got.Time, msg.Time)
	}
	if got.Tag != msg.Tag || got.Severity != msg.Severity || got.Text != msg.Text {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestParseLineMalformed(t *testing.T) {
	bad := []string{
		"",
		"no brackets here",
		"Sun Jul 23 05:43:36 UTC 2006 [missing.severity]: text",
		"Sun Jul 23 05:43:36 UTC 2006 [tag:bogus]: text",
		"not a timestamp [a.b:error]: text",
		// time.Parse accepts a fraction the layout lacks; Render could
		// not write it back.
		"Mon Jan  2 15:04:05.5 UTC 2006 [a:info]: x",
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("line %q should fail to parse", line)
		}
	}
}

func TestExtractSerial(t *testing.T) {
	cases := map[string]string{
		"Disk 8.24 S/N [3EL03PAV00007111LR8W] is missing.": "3EL03PAV00007111LR8W",
		"Disk 8.24 S/N [unclosed":                          "",
		"no serial":                                        "",
	}
	for text, want := range cases {
		if got := extractSerial(text); got != want {
			t.Errorf("extractSerial(%q) = %q, want %q", text, got, want)
		}
	}
}

func TestEmitChainShapes(t *testing.T) {
	res := smallRun(t)
	seen := map[failmodel.FailureType]bool{}
	for _, e := range res.Events {
		msgs := Emit(nil, e)
		if len(msgs) < 2 {
			t.Fatalf("chain for %s too short: %d messages", e.Type, len(msgs))
		}
		last := msgs[len(msgs)-1]
		if e.Recovered {
			// Recovered faults stop below the RAID layer.
			if _, isRAID := FailureTypeForTag(last.Tag()); isRAID {
				t.Fatal("recovered fault emitted a RAID-layer event")
			}
			if last.Tag() != "fcp.path.failover" {
				t.Fatalf("recovered chain ends with %s", last.Tag())
			}
		} else {
			ft, isRAID := FailureTypeForTag(last.Tag())
			if !isRAID {
				t.Fatalf("visible chain for %s ends with %s", e.Type, last.Tag())
			}
			if ft != e.Type {
				t.Fatalf("RAID tag type %s for event type %s", ft, e.Type)
			}
			// RAID message carries detection time, and its line the serial.
			if last.Time != e.Detected {
				t.Fatal("RAID event not at detection time")
			}
			if got := extractSerial(last.Line(res.Fleet).Text); got != fleet.Serial(int(e.Disk)) {
				t.Fatalf("RAID line names serial %q, want %q", got, fleet.Serial(int(e.Disk)))
			}
		}
		// Every message names the event's disk and cause, and chain
		// timestamps never go backwards or pass detection.
		for i, m := range msgs {
			if m.Disk != e.Disk || m.Cause != e.Cause || m.Time > e.Detected {
				t.Fatalf("message %d %+v does not belong to event %+v", i, m, e)
			}
			if i > 0 && m.Time < msgs[i-1].Time {
				t.Fatal("chain timestamps must not go backwards")
			}
		}
		seen[e.Type] = true
	}
	for _, ft := range failmodel.Types {
		if !seen[ft] {
			t.Errorf("no %s events in the test run", ft)
		}
	}
}

func TestFigure3ChainForInterconnect(t *testing.T) {
	// The paper's Figure 3 sequence for a physical interconnect failure.
	res := smallRun(t)
	for _, e := range res.Events {
		if e.Type != failmodel.PhysicalInterconnect || e.Recovered {
			continue
		}
		msgs := Emit(nil, e)
		wantTags := []string{
			"fci.device.timeout", "fci.adapter.reset", "scsi.cmd.abortedByHost",
			"scsi.cmd.selectionTimeout", "scsi.cmd.noMorePaths", TagRAIDDiskMissing,
		}
		if len(msgs) != len(wantTags) {
			t.Fatalf("chain length %d, want %d", len(msgs), len(wantTags))
		}
		for i, tag := range wantTags {
			if msgs[i].Tag() != tag {
				t.Fatalf("step %d tag %s, want %s", i, msgs[i].Tag(), tag)
			}
		}
		return
	}
	t.Fatal("no visible interconnect event found")
}

func TestClassifyIgnoresNoise(t *testing.T) {
	msgs := []Line{
		{Tag: "raid.scrub.start", Text: "weekly scrub"},
		{Tag: "fci.device.timeout", Text: "Device 8.24 timeout"},
		{Tag: TagRAIDDiskFailed, Text: "Disk 8.24 S/N [X] failed; starting reconstruction."},
		{Tag: "fcp.path.failover", Text: "rerouted"},
	}
	failures := Classify(msgs)
	if len(failures) != 1 {
		t.Fatalf("classified %d failures, want 1", len(failures))
	}
	if failures[0].Type != failmodel.DiskFailure || failures[0].Serial != "X" {
		t.Error("classification mismatch")
	}
}

func TestMiningRecoversGroundTruth(t *testing.T) {
	// Emit -> render -> parse -> classify -> resolve must reproduce the
	// visible event stream exactly (type, disk, detection time).
	res := smallRun(t)
	var text strings.Builder
	for _, e := range res.Events {
		for _, m := range Emit(nil, e) {
			text.WriteString(m.Line(res.Fleet).Render())
			text.WriteByte('\n')
		}
	}

	msgs, malformed, err := ParseLog(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	if malformed != 0 {
		t.Fatalf("%d malformed lines from clean logs", malformed)
	}
	failures := Classify(msgs)
	rv := NewResolver(res.Fleet)
	mined, dropped := rv.ResolveAll(failures)
	if dropped != 0 {
		t.Fatalf("%d unresolvable failures", dropped)
	}

	visible := slices.DeleteFunc(slices.Clone(res.Events), func(e failmodel.Event) bool { return !e.Visible() })
	if len(mined) != len(visible) {
		t.Fatalf("mined %d events, ground truth has %d visible", len(mined), len(visible))
	}
	for i := range mined {
		want := visible[i]
		got := mined[i]
		if got.Type != want.Type || got.Disk != want.Disk || got.Detected != want.Detected ||
			got.Shelf != want.Shelf || got.System != want.System || got.Group != want.Group {
			t.Fatalf("mined event %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestResolveUnknownSerial(t *testing.T) {
	res := smallRun(t)
	rv := NewResolver(res.Fleet)
	_, ok := rv.Resolve(ParsedFailure{Serial: "NO-SUCH-SERIAL", Type: failmodel.DiskFailure})
	if ok {
		t.Error("unknown serial must not resolve")
	}
	events, dropped := rv.ResolveAll([]ParsedFailure{{Serial: "NO-SUCH"}})
	if len(events) != 0 || dropped != 1 {
		t.Error("ResolveAll must count unresolvable records")
	}
	for _, id := range []int{-1, res.Fleet.NumDisks()} {
		if _, ok := rv.ResolveDisk(id, failmodel.DiskFailure, 0); ok {
			t.Errorf("disk ID %d outside the fleet must not resolve", id)
		}
	}
}

// TestResolverMatchesSerialIndex pins NewResolver to the serial index
// it replaced (a map from every disk's serial to its ID, built when the
// resolver was made): mining a rendered log with unknown serials
// injected resolves the same disks and drops exactly the injected
// records.
func TestResolverMatchesSerialIndex(t *testing.T) {
	res := smallRun(t)
	f := res.Fleet
	index := make(map[string]int, f.NumDisks())
	for id := range f.NumDisks() {
		index[fleet.Serial(id)] = id
	}

	unknown := []string{
		strings.ToLower(fleet.Serial(10)), // lowercase
		"S" + fleet.Serial(10)[2:],        // one digit short
		"S0" + fleet.Serial(10)[1:],       // one digit of extra padding
		fleet.Serial(f.NumDisks()),        // the next disk, not yet installed
		"SFFFFFFFFFFFFFFFF",               // ID -1 as a signed int
		"NO-SUCH",
		"",
	}
	var text strings.Builder
	for _, e := range res.Events {
		for _, m := range Emit(nil, e) {
			text.WriteString(m.Line(f).Render())
			text.WriteByte('\n')
		}
	}
	at := simtime.ToWall(simtime.StudyDuration / 2)
	for _, s := range unknown {
		m := Line{Time: at, Tag: TagRAIDDiskFailed, Severity: Info,
			Text: "Disk 8.24 S/N [" + s + "] failed; starting reconstruction."}
		text.WriteString(m.Render())
		text.WriteByte('\n')
	}

	msgs, malformed, err := ParseLog(strings.NewReader(text.String()))
	if err != nil || malformed != 0 {
		t.Fatalf("parse: %d malformed, err %v", malformed, err)
	}
	failures := Classify(msgs)
	rv := NewResolver(f)
	wantDropped := 0
	for _, p := range failures {
		id, known := index[p.Serial]
		if !known {
			wantDropped++
		}
		e, ok := rv.Resolve(p)
		if ok != known || (ok && int(e.Disk) != id) {
			t.Fatalf("serial %q resolved to (disk %d, %v), index says (%d, %v)", p.Serial, e.Disk, ok, id, known)
		}
	}
	events, dropped := rv.ResolveAll(failures)
	if dropped != wantDropped || dropped != len(unknown) {
		t.Fatalf("dropped %d, index drops %d, injected %d", dropped, wantDropped, len(unknown))
	}
	visible := 0
	for _, e := range res.Events {
		if e.Visible() {
			visible++
		}
	}
	if len(events) != visible {
		t.Fatalf("mined %d events, ground truth has %d visible", len(events), visible)
	}
}

func TestParseLogSkipsGarbage(t *testing.T) {
	input := "garbage\n\nSun Jul 23 05:43:36 UTC 2006 [a.b:error]: Device 1.17: fine\nmore garbage\n"
	msgs, malformed, err := ParseLog(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || malformed != 2 {
		t.Errorf("got %d messages, %d malformed; want 1, 2", len(msgs), malformed)
	}
}

// TestDeviceAddress checks a line's "adapter.loop" device address:
// the shelf's position in its system gives the adapter, the disk's slot
// the loop ID, so slot 8 of a system's first shelf is the paper's
// "device 8.24".
func TestDeviceAddress(t *testing.T) {
	f := smallRun(t).Fleet
	for _, tc := range []struct {
		shelf int
		slot  uint8
		want  string
	}{{0, 8, "8.24"}, {3, 0, "11.16"}} {
		id := -1
		for i := range f.NumDisks() {
			if d := f.Disk(i); f.ShelfIndex(int(d.Shelf)) == tc.shelf && d.Slot == tc.slot {
				id = i
				break
			}
		}
		if id < 0 {
			t.Fatalf("no disk in slot %d of a shelf at index %d", tc.slot, tc.shelf)
		}
		got := Message{Disk: int32(id), Step: stepDiskFailed}.Line(f).Text
		if want := "Disk " + tc.want + " S/N [" + fleet.Serial(id) + "] failed; starting reconstruction."; got != want {
			t.Errorf("line %q, want %q", got, want)
		}
	}
}

// Property: any tag/severity/text triple built from printable characters
// round-trips through Render/ParseLine.
func TestQuickRenderParse(t *testing.T) {
	f := func(tagSeed uint8, sevSeed uint8, textSeed uint16) bool {
		tags := []string{"a.b", "fci.device.timeout", "raid.rg.diskFailed", "x.y.z"}
		sevs := []Severity{Info, Warning, Error}
		texts := []string{"plain", "Device 3.19: retried", "Disk 9.30 S/N [QQ17] failed", "trailing spaces  kept"}
		m := Line{
			Time:     time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(textSeed) * time.Hour),
			Tag:      tags[int(tagSeed)%len(tags)],
			Severity: sevs[int(sevSeed)%len(sevs)],
			Text:     texts[int(textSeed)%len(texts)],
		}
		got, err := ParseLine(m.Render())
		return err == nil && got.Tag == m.Tag && got.Severity == m.Severity &&
			got.Text == m.Text && got.Time.Equal(m.Time)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestResolveDiskMatchesFleet holds ResolveDisk's placement — the
// shelf, system and RAID group it gives an event — to fleet.Disk for
// every disk of a simulated fleet, resolved in ID order (runs of one
// system, as mining resolves them) and then in a shuffled order, which
// jumps between systems and between as-built disks and replacements.
func TestResolveDiskMatchesFleet(t *testing.T) {
	f := smallRun(t).Fleet
	rv := NewResolver(f)
	ids := make([]int, f.NumDisks())
	for i := range ids {
		ids[i] = i
	}
	check := func(order string) {
		for _, id := range ids {
			e, ok := rv.ResolveDisk(id, failmodel.DiskFailure, 0)
			d := f.Disk(id)
			if !ok || e.Shelf != d.Shelf || e.System != f.Shelves[d.Shelf].System || e.Group != d.RAIDGrp {
				t.Fatalf("%s: disk %d resolved to shelf %d system %d group %d, fleet says %+v",
					order, id, e.Shelf, e.System, e.Group, d)
			}
		}
	}
	check("ID order")
	r := stats.NewRNG(5)
	for i := len(ids) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	check("shuffled")
}
