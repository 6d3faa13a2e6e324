// Package eventlog implements the support-log substrate of the study:
// the layered syslog messages a storage system emits while a failure
// propagates up the I/O path (Fibre Channel -> SCSI -> RAID, the paper's
// Figure 3), their text rendering, and the parser + classifier that
// recover typed RAID-layer failure events from raw log text.
//
// The paper's dataset is mined from exactly such logs: "when a failure
// happens, multiple events are generated as the failure propagates from
// lower layers to higher layers ... the RAID layer, which is right above
// the storage subsystem, generates a disk missing event, indicating a
// physical interconnect failure." This package makes the reproduction
// run the same mining path rather than consuming simulator ground truth
// directly.
//
// A Message stores what its line is rendered from — time, disk ID,
// chain step and root cause — and holds no text. One table (steps)
// gives every step its tag, severity, timing and text template, and one
// list per failure type gives its chain. Text exists only when a line
// is written: Message.Line renders a Line, ParseLine reads one back,
// and Classify works on Lines, joining them to disks by the serial in
// their text.
package eventlog

import (
	"fmt"
	"time"

	"storagesubsys/internal/failmodel"
)

// Severity of a log message.
type Severity int

// Severities used in the logs.
const (
	Info Severity = iota
	Warning
	Error
)

var severityNames = [...]string{Info: "info", Warning: "warning", Error: "error"}

func (s Severity) String() string {
	if s >= 0 && int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Line is one log line as text: what Message.Line renders and
// ParseLine reads back.
type Line struct {
	Time     time.Time
	Tag      string // dotted event tag, e.g. "scsi.cmd.noMorePaths"
	Severity Severity
	Text     string // free-form message body
}

// RAID-layer tags: these are the four storage subsystem failure
// signatures the classifier looks for, one per failure type (paper
// Section 2.5: "we look at four types of events generated by the RAID
// layer, corresponding to four categories of storage subsystem
// failures").
const (
	TagRAIDDiskFailed  = "raid.rg.diskFailed"                  // disk failure
	TagRAIDDiskMissing = "raid.config.filesystem.disk.missing" // physical interconnect failure
	TagRAIDDiskOffline = "raid.disk.offline"                   // protocol failure
	TagRAIDDiskTimeout = "raid.disk.timeout"                   // performance failure
)

// FailureTypeForTag returns the failure type whose chain ends in the
// given RAID-layer tag.
func FailureTypeForTag(tag string) (failmodel.FailureType, bool) {
	for t, chain := range chains[:] {
		if steps[chain[len(chain)-1]].tag == tag {
			return failmodel.FailureType(t), true
		}
	}
	return 0, false
}

// timeLayout is the log timestamp format. The paper's example omits the
// year ("Sun Jul 23 05:43:36 PDT"); a year is required for a 44-month
// archive to round-trip, so the rendered layout appends it.
const timeLayout = "Mon Jan _2 15:04:05 MST 2006"

// Render formats the line as text, its time in UTC:
//
//	Sun Jul 23 05:43:36 UTC 2006 [scsi.cmd.noMorePaths:error]: Device 8.24: No more paths to device.
//
// Writing UTC keeps every rendering parseable to the same instant:
// time.Parse reads the clock of a "GMT+3" stamp as UTC yet keeps the
// +3 zone, so the line written back in that zone would move 3 hours.
func (l Line) Render() string {
	return fmt.Sprintf("%s [%s:%s]: %s", l.Time.UTC().Format(timeLayout), l.Tag, l.Severity, l.Text)
}
