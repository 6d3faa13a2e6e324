package eventlog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
)

// ErrMalformedLine reports an unparseable log line.
var ErrMalformedLine = errors.New("eventlog: malformed log line")

// ParseLine parses one rendered log line back into a Line. A timestamp
// finer than the layout's whole seconds is malformed: Render could not
// write it back.
func ParseLine(line string) (Line, error) {
	var l Line
	// Format: "<timestamp> [tag:severity]: text"
	open := strings.Index(line, " [")
	if open < 0 {
		return l, fmt.Errorf("%w: no tag bracket: %q", ErrMalformedLine, line)
	}
	close := strings.Index(line[open:], "]: ")
	if close < 0 {
		return l, fmt.Errorf("%w: no tag close: %q", ErrMalformedLine, line)
	}
	close += open
	ts, err := time.Parse(timeLayout, line[:open])
	if err != nil {
		return l, fmt.Errorf("%w: bad timestamp: %v", ErrMalformedLine, err)
	}
	if ts.Nanosecond() != 0 {
		return l, fmt.Errorf("%w: sub-second timestamp %q", ErrMalformedLine, line[:open])
	}
	tagSev := line[open+2 : close]
	colon := strings.LastIndex(tagSev, ":")
	if colon < 0 {
		return l, fmt.Errorf("%w: no severity: %q", ErrMalformedLine, line)
	}
	sev := slices.Index(severityNames[:], tagSev[colon+1:])
	if sev < 0 {
		return l, fmt.Errorf("%w: unknown severity %q", ErrMalformedLine, tagSev[colon+1:])
	}
	l.Time = ts
	l.Tag = tagSev[:colon]
	l.Severity = Severity(sev)
	l.Text = line[close+3:]
	return l, nil
}

// extractSerial finds a serial number in an "S/N [XXXX]" clause.
func extractSerial(text string) string {
	idx := strings.Index(text, "S/N [")
	if idx < 0 {
		return ""
	}
	rest := text[idx+len("S/N ["):]
	end := strings.IndexByte(rest, ']')
	if end < 0 {
		return ""
	}
	return rest[:end]
}

// ParseLog parses a full log stream, skipping blank lines. It returns
// the parsed lines and the number of malformed lines skipped.
func ParseLog(r io.Reader) ([]Line, int, error) {
	var msgs []Line
	malformed := 0
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		m, err := ParseLine(line)
		if err != nil {
			malformed++
			continue
		}
		msgs = append(msgs, m)
	}
	if err := scanner.Err(); err != nil {
		return msgs, malformed, err
	}
	return msgs, malformed, nil
}

// ParsedFailure is one storage subsystem failure recovered from the
// RAID-layer messages of a log.
type ParsedFailure struct {
	Detected time.Time
	Type     failmodel.FailureType
	Serial   string
}

// Classify scans parsed lines for RAID-layer failure signatures — the
// paper's methodology of tagging storage subsystem failures by the
// events the RAID layer generates — and takes each one's disk serial
// from its text. Lower-layer messages (fci.*, scsi.*) and multipath
// failover notices are deliberately not failures.
func Classify(lines []Line) []ParsedFailure {
	var out []ParsedFailure
	for _, l := range lines {
		t, ok := FailureTypeForTag(l.Tag)
		if !ok {
			continue
		}
		out = append(out, ParsedFailure{
			Detected: l.Time,
			Type:     t,
			Serial:   extractSerial(l.Text),
		})
	}
	return out
}

// Resolver maps failures back to fleet identities, reconstructing
// analyzable events: a failure mined from text by its disk serial, one
// mined in process by its disk ID. It is not safe for concurrent use.
type Resolver struct {
	fleet *fleet.Fleet
	disks int // fleet.NumDisks() when the resolver was made

	// The system of the last as-built disk resolved through
	// fleet.Disk, and its disks' RAID groups (fleet.SystemGroups) from
	// its first disk on. Logs are mined system by system, so most
	// disks resolve from it.
	sys    *fleet.System
	first  int
	groups []int32
}

// NewResolver returns a resolver over the disks the fleet holds now: an
// ID resolves when it is one of theirs, and a serial when it is exactly
// fleet.Serial of one of them. A serial encodes its disk ID, so no
// index is built.
func NewResolver(f *fleet.Fleet) *Resolver {
	return &Resolver{fleet: f, disks: f.NumDisks()}
}

// Resolve converts a parsed failure into a failure event bound to fleet
// topology, through ResolveDisk. It reports false if the serial is
// unknown.
func (rv *Resolver) Resolve(p ParsedFailure) (failmodel.Event, bool) {
	id, ok := fleet.ParseSerial(p.Serial, rv.disks)
	if !ok {
		return failmodel.Event{}, false
	}
	return rv.ResolveDisk(id, p.Type, simtime.FromWall(p.Detected))
}

// ResolveDisk converts a failure of type t detected at det on the disk
// with the given ID into a failure event bound to fleet topology. The
// occurrence time of a mined event is unknown — the logs record
// detection — so Time is set equal to Detected, which is also what the
// paper's analyses consume. It reports false if the ID is not one of
// the resolver's disks.
//
//detlint:hotpath
func (rv *Resolver) ResolveDisk(id int, t failmodel.FailureType, det simtime.Seconds) (failmodel.Event, bool) {
	if id < 0 || id >= rv.disks {
		return failmodel.Event{}, false
	}
	f := rv.fleet
	var shelf, group int32
	if k := id - rv.first; k >= 0 && k < len(rv.groups) {
		shelf = rv.sys.Shelves.Lo
		for f.Shelves[shelf].Disks.Hi <= int32(id) {
			shelf++
		}
		group = rv.groups[k]
	} else {
		d := f.Disk(id)
		shelf, group = d.Shelf, d.RAIDGrp
		if sh := &f.Shelves[shelf]; id < int(sh.Disks.Hi) { // as-built
			rv.sys = &f.Systems[sh.System]
			rv.first = int(f.Shelves[rv.sys.Shelves.Lo].Disks.Lo)
			rv.groups = f.SystemGroups(rv.groups[:0], rv.sys)
		}
	}
	return failmodel.Event{
		Time:     det,
		Detected: det,
		Type:     t,
		Cause:    defaultCauseFor(t),
		Disk:     int32(id),
		Shelf:    shelf,
		System:   f.Shelves[shelf].System,
		Group:    group,
	}, true
}

// ResolveAll resolves every parsed failure it can, returning the events
// and the number of unresolvable records.
func (rv *Resolver) ResolveAll(ps []ParsedFailure) ([]failmodel.Event, int) {
	var events []failmodel.Event
	dropped := 0
	for _, p := range ps {
		e, ok := rv.Resolve(p)
		if !ok {
			dropped++
			continue
		}
		events = append(events, e)
	}
	return events, dropped
}

// defaultCauseFor returns a representative cause for a mined failure;
// root causes below the failure type are not recoverable from RAID-layer
// messages alone.
func defaultCauseFor(t failmodel.FailureType) failmodel.Cause {
	switch t {
	case failmodel.DiskFailure:
		return failmodel.CauseDiskMedia
	case failmodel.PhysicalInterconnect:
		return failmodel.CauseCable
	case failmodel.Protocol:
		return failmodel.CauseDriverBug
	default:
		return failmodel.CauseSlowIO
	}
}
