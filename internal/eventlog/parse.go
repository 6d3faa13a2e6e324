package eventlog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
)

// ErrMalformedLine reports an unparseable log line.
var ErrMalformedLine = errors.New("eventlog: malformed log line")

// ParseLine parses one rendered log line back into a Message. Lines that
// do not carry a device or serial reference leave those fields empty.
func ParseLine(line string) (Message, error) {
	var m Message
	// Format: "<timestamp> [tag:severity]: text"
	open := strings.Index(line, " [")
	if open < 0 {
		return m, fmt.Errorf("%w: no tag bracket: %q", ErrMalformedLine, line)
	}
	close := strings.Index(line[open:], "]: ")
	if close < 0 {
		return m, fmt.Errorf("%w: no tag close: %q", ErrMalformedLine, line)
	}
	close += open
	ts, err := time.Parse(timeLayout, line[:open])
	if err != nil {
		return m, fmt.Errorf("%w: bad timestamp: %v", ErrMalformedLine, err)
	}
	tagSev := line[open+2 : close]
	colon := strings.LastIndex(tagSev, ":")
	if colon < 0 {
		return m, fmt.Errorf("%w: no severity: %q", ErrMalformedLine, line)
	}
	sev, ok := severityFromString(tagSev[colon+1:])
	if !ok {
		return m, fmt.Errorf("%w: unknown severity %q", ErrMalformedLine, tagSev[colon+1:])
	}
	m.Time = ts
	m.Tag = tagSev[:colon]
	m.Severity = sev
	m.Text = line[close+3:]
	m.Device = extractDevice(m.Text)
	m.Serial = extractSerial(m.Text)
	return m, nil
}

// extractDevice finds an "adapter.loop" device address after a "Device "
// or "Disk " marker, e.g. "Device 8.24:" -> "8.24".
func extractDevice(text string) string {
	for _, marker := range []string{"Device ", "Disk ", "device "} {
		// A marker can appear several times ("a device timeout on
		// device 8.24"); scan every occurrence.
		for search := text; ; {
			idx := strings.Index(search, marker)
			if idx < 0 {
				break
			}
			rest := search[idx+len(marker):]
			end := 0
			dots := 0
			for end < len(rest) {
				c := rest[end]
				if c >= '0' && c <= '9' {
					end++
					continue
				}
				if c == '.' && end+1 < len(rest) && rest[end+1] >= '0' && rest[end+1] <= '9' {
					dots++
					end++
					continue
				}
				break
			}
			if end > 0 && dots == 1 {
				return rest[:end]
			}
			search = rest
		}
	}
	return ""
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
// the parsed messages and the number of malformed lines skipped.
func ParseLog(r io.Reader) ([]Message, int, error) {
	var msgs []Message
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
	Device   string
	Serial   string
}

// Classify scans parsed messages for RAID-layer failure signatures — the
// paper's methodology of tagging storage subsystem failures by the
// events the RAID layer generates. Lower-layer messages (fci.*, scsi.*)
// and multipath failover notices are deliberately not failures.
func Classify(msgs []Message) []ParsedFailure {
	var out []ParsedFailure
	for _, m := range msgs {
		t, ok := FailureTypeForTag(m.Tag)
		if !ok {
			continue
		}
		out = append(out, ParsedFailure{
			Detected: m.Time,
			Type:     t,
			Device:   m.Device,
			Serial:   m.Serial,
		})
	}
	return out
}

// Resolver maps parsed failures back to fleet identities via disk serial
// numbers, reconstructing analyzable events.
type Resolver struct {
	fleet *fleet.Fleet
	disks int // len(fleet.Disks) when the resolver was made
}

// NewResolver returns a resolver over the disks the fleet holds now: a
// serial resolves when it is exactly fleet.Serial of one of them. A
// serial encodes its disk ID, so no index is built.
func NewResolver(f *fleet.Fleet) *Resolver {
	return &Resolver{fleet: f, disks: len(f.Disks)}
}

// Resolve converts a parsed failure into a failure event bound to fleet
// topology. The occurrence time of a mined event is unknown — the logs
// record detection — so Time is set equal to Detected, which is also
// what the paper's analyses consume. It reports false if the serial is
// unknown.
func (rv *Resolver) Resolve(p ParsedFailure) (failmodel.Event, bool) {
	id, ok := fleet.ParseSerial(p.Serial, rv.disks)
	if !ok {
		return failmodel.Event{}, false
	}
	d := &rv.fleet.Disks[id]
	det := simtime.FromWall(p.Detected)
	return failmodel.Event{
		Time:     det,
		Detected: det,
		Type:     p.Type,
		Cause:    defaultCauseFor(p.Type),
		Disk:     id,
		Shelf:    int(d.Shelf),
		System:   int(rv.fleet.Shelves[d.Shelf].System),
		Group:    int(d.RAIDGrp),
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
