package eventlog

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
	"storagesubsys/internal/simtime"
)

var cachedRun *sim.Result

func smallRun(t *testing.T) *sim.Result {
	t.Helper()
	if cachedRun == nil {
		f := fleet.BuildDefault(0.01, 21)
		cachedRun = sim.Run(f, failmodel.DefaultParams(), 22)
	}
	return cachedRun
}

func TestRenderParseRoundTrip(t *testing.T) {
	msg := Message{
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
	if got.Device != "8.24" {
		t.Errorf("device %q, want 8.24", got.Device)
	}
}

func TestParseLineMalformed(t *testing.T) {
	bad := []string{
		"",
		"no brackets here",
		"Sun Jul 23 05:43:36 UTC 2006 [missing.severity]: text",
		"Sun Jul 23 05:43:36 UTC 2006 [tag:bogus]: text",
		"not a timestamp [a.b:error]: text",
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("line %q should fail to parse", line)
		}
	}
}

func TestExtractDevice(t *testing.T) {
	cases := map[string]string{
		"Device 8.24: Command aborted":                          "8.24",
		"File system Disk 12.17 S/N [ABC] is missing.":          "12.17",
		"Adapter 8 encountered a device timeout on device 8.24": "8.24",
		"no device here":        "",
		"Device without number": "",
	}
	for text, want := range cases {
		if got := extractDevice(text); got != want {
			t.Errorf("extractDevice(%q) = %q, want %q", text, got, want)
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
	em := NewEmitter(res.Fleet)
	seen := map[failmodel.FailureType]bool{}
	for _, e := range res.Events {
		msgs := em.Emit(e)
		if len(msgs) < 2 {
			t.Fatalf("chain for %s too short: %d messages", e.Type, len(msgs))
		}
		last := msgs[len(msgs)-1]
		if e.Recovered {
			// Recovered faults stop below the RAID layer.
			if _, isRAID := FailureTypeForTag(last.Tag); isRAID {
				t.Fatal("recovered fault emitted a RAID-layer event")
			}
			if last.Tag != "fcp.path.failover" {
				t.Fatalf("recovered chain ends with %s", last.Tag)
			}
		} else {
			ft, isRAID := FailureTypeForTag(last.Tag)
			if !isRAID {
				t.Fatalf("visible chain for %s ends with %s", e.Type, last.Tag)
			}
			if ft != e.Type {
				t.Fatalf("RAID tag type %s for event type %s", ft, e.Type)
			}
			// RAID message carries detection time and the serial.
			if !last.Time.Equal(simtime.ToWall(e.Detected)) {
				t.Fatal("RAID event not at detection time")
			}
			if last.Serial != fleet.Serial(e.Disk) {
				t.Fatal("RAID event lost the disk serial")
			}
		}
		// Chain timestamps must be non-decreasing.
		for i := 1; i < len(msgs); i++ {
			if msgs[i].Time.Before(msgs[i-1].Time) {
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
	em := NewEmitter(res.Fleet)
	for _, e := range res.Events {
		if e.Type != failmodel.PhysicalInterconnect || e.Recovered {
			continue
		}
		msgs := em.Emit(e)
		wantTags := []string{
			"fci.device.timeout", "fci.adapter.reset", "scsi.cmd.abortedByHost",
			"scsi.cmd.selectionTimeout", "scsi.cmd.noMorePaths", TagRAIDDiskMissing,
		}
		if len(msgs) != len(wantTags) {
			t.Fatalf("chain length %d, want %d", len(msgs), len(wantTags))
		}
		for i, tag := range wantTags {
			if msgs[i].Tag != tag {
				t.Fatalf("step %d tag %s, want %s", i, msgs[i].Tag, tag)
			}
		}
		return
	}
	t.Fatal("no visible interconnect event found")
}

func TestClassifyIgnoresNoise(t *testing.T) {
	msgs := []Message{
		{Tag: "raid.scrub.start", Text: "weekly scrub"},
		{Tag: "fci.device.timeout", Text: "Device 8.24 timeout"},
		{Tag: TagRAIDDiskFailed, Device: "8.24", Serial: "X"},
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
	em := NewEmitter(res.Fleet)
	var text strings.Builder
	for _, e := range res.Events {
		for _, m := range em.Emit(e) {
			text.WriteString(m.Render())
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

	visible := res.VisibleEvents()
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
}

// TestResolverMatchesSerialIndex pins NewResolver to the serial index
// it replaced (a map from every disk's serial to its ID, built when the
// resolver was made): mining a rendered log with unknown serials
// injected resolves the same disks and drops exactly the injected
// records.
func TestResolverMatchesSerialIndex(t *testing.T) {
	res := smallRun(t)
	f := res.Fleet
	index := make(map[string]int, len(f.Disks))
	for _, d := range f.Disks {
		index[fleet.Serial(d.ID)] = d.ID
	}

	unknown := []string{
		strings.ToLower(fleet.Serial(10)), // lowercase
		"S" + fleet.Serial(10)[2:],        // one digit short
		"S0" + fleet.Serial(10)[1:],       // one digit of extra padding
		fleet.Serial(len(f.Disks)),        // the next disk, not yet installed
		"SFFFFFFFFFFFFFFFF",               // ID -1 as a signed int
		"NO-SUCH",
		"",
	}
	var text strings.Builder
	em := NewEmitter(f)
	for _, e := range res.Events {
		for _, m := range em.Emit(e) {
			text.WriteString(m.Render())
			text.WriteByte('\n')
		}
	}
	at := simtime.ToWall(simtime.StudyDuration / 2)
	for _, s := range unknown {
		m := Message{Time: at, Tag: TagRAIDDiskFailed, Severity: Info,
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
		if ok != known || (ok && e.Disk != id) {
			t.Fatalf("serial %q resolved to (disk %d, %v), index says (%d, %v)", p.Serial, e.Disk, ok, id, known)
		}
	}
	events, dropped := rv.ResolveAll(failures)
	if dropped != wantDropped || dropped != len(unknown) {
		t.Fatalf("dropped %d, index drops %d, injected %d", dropped, wantDropped, len(unknown))
	}
	if len(events) != len(res.VisibleEvents()) {
		t.Fatalf("mined %d events, ground truth has %d visible", len(events), len(res.VisibleEvents()))
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

func TestDeviceAddress(t *testing.T) {
	if got := DeviceAddress(0, 8); got != "8.24" {
		t.Errorf("DeviceAddress(0, 8) = %q, want 8.24 (the paper's example)", got)
	}
	if got := DeviceAddress(3, 0); got != "11.16" {
		t.Errorf("DeviceAddress(3, 0) = %q", got)
	}
}

// Property: any tag/severity/text triple built from printable characters
// round-trips through Render/ParseLine.
func TestQuickRenderParse(t *testing.T) {
	f := func(tagSeed uint8, sevSeed uint8, textSeed uint16) bool {
		tags := []string{"a.b", "fci.device.timeout", "raid.rg.diskFailed", "x.y.z"}
		sevs := []Severity{Info, Warning, Error}
		texts := []string{"plain", "Device 3.19: retried", "Disk 9.30 S/N [QQ17] failed", "trailing spaces  kept"}
		m := Message{
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
