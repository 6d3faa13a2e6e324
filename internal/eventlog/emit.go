package eventlog

import (
	"fmt"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
)

// Message is one log message, stored as what its line is rendered
// from: Line turns it into text.
type Message struct {
	Time  simtime.Seconds
	Disk  int32 // fleet ID of the disk the failure hit
	Step  Step
	Cause failmodel.Cause // the failure's root cause, named by some texts
}

// Step is one message of a failure's propagation chain, an index into
// steps.
type Step uint8

const (
	stepDeviceTimeout Step = iota
	stepAdapterReset
	stepAbortedByHost
	stepSelectionTimeout
	stepPathFailover
	stepNoMorePaths
	stepMediumError
	stepCheckCondition
	stepThresholdExceeded
	stepProtocolViolation
	stepDriverIncompatible
	stepSlowIO
	stepRetry
	stepDiskFailed
	stepDiskMissing
	stepDiskOffline
	stepDiskTimeout
)

// atDetection is the delay of a RAID-layer step: it is logged when the
// hourly scrub detects the failure, not a fixed time after it occurs.
const atDetection simtime.Seconds = -1

// steps gives each Step its line. A step other than the RAID-layer one
// is logged delay seconds after the failure occurs, but never after its
// detection: when the next scrub lands inside the propagation window,
// the chain compresses into it. A text is a fmt template over the
// line's arguments: %[1]d the adapter and %[2]d the loop ID, which
// make the "adapter.loop" device address of the paper's "device 8.24",
// %[3]s the disk serial and %[4]s the root cause.
var steps = [...]struct {
	tag   string
	sev   Severity
	delay simtime.Seconds
	text  string
}{
	stepDeviceTimeout:      {"fci.device.timeout", Error, 0, "Adapter %[1]d encountered a device timeout on device %[1]d.%[2]d"},
	stepAdapterReset:       {"fci.adapter.reset", Info, 14, "Resetting Fibre Channel adapter %[1]d."},
	stepAbortedByHost:      {"scsi.cmd.abortedByHost", Error, 14, "Device %[1]d.%[2]d: Command aborted by host adapter"},
	stepSelectionTimeout:   {"scsi.cmd.selectionTimeout", Error, 36, "Device %[1]d.%[2]d: Adapter/target error: Targeted device did not respond to requested I/O. I/O will be retried."},
	stepPathFailover:       {"fcp.path.failover", Info, 46, "Device %[1]d.%[2]d: I/O rerouted to secondary path after primary path failure (%[4]s)."},
	stepNoMorePaths:        {"scsi.cmd.noMorePaths", Error, 46, "Device %[1]d.%[2]d: No more paths to device. All retries have failed."},
	stepMediumError:        {"disk.ioMediumError", Error, 0, "Device %[1]d.%[2]d: medium error during read: block remap attempted."},
	stepCheckCondition:     {"scsi.cmd.checkCondition", Error, 22, "Device %[1]d.%[2]d: check condition: sense key Medium Error."},
	stepThresholdExceeded:  {"shm.threshold.exceeded", Warning, 60, "Disk %[1]d.%[2]d S/N [%[3]s] has exceeded its failure-prediction threshold."},
	stepProtocolViolation:  {"scsi.cmd.protocolViolation", Error, 0, "Device %[1]d.%[2]d: unexpected response for tagged command; protocol violation suspected."},
	stepDriverIncompatible: {"disk.driver.incompatible", Error, 9, "Device %[1]d.%[2]d: firmware/driver handshake failed (%[4]s)."},
	stepSlowIO:             {"disk.slowIO", Warning, 0, "Device %[1]d.%[2]d: I/O completion time above threshold."},
	stepRetry:              {"scsi.cmd.retry", Warning, 31, "Device %[1]d.%[2]d: retrying delayed I/O request."},
	stepDiskFailed:         {TagRAIDDiskFailed, Info, atDetection, "Disk %[1]d.%[2]d S/N [%[3]s] failed; starting reconstruction."},
	stepDiskMissing:        {TagRAIDDiskMissing, Info, atDetection, "File system Disk %[1]d.%[2]d S/N [%[3]s] is missing."},
	stepDiskOffline:        {TagRAIDDiskOffline, Info, atDetection, "Disk %[1]d.%[2]d S/N [%[3]s] is offline: requests not serviced correctly."},
	stepDiskTimeout:        {TagRAIDDiskTimeout, Info, atDetection, "Disk %[1]d.%[2]d S/N [%[3]s] not responding in time; marked failed by timeout policy."},
}

// chains gives each failure type the chain it logs while propagating
// FC -> SCSI -> RAID. The last step is the RAID-layer event the
// classifier keys on.
var chains = [...][]Step{
	failmodel.DiskFailure: {stepMediumError, stepCheckCondition, stepThresholdExceeded, stepDiskFailed},
	// The paper's Figure 3 chain.
	failmodel.PhysicalInterconnect: {stepDeviceTimeout, stepAdapterReset, stepAbortedByHost,
		stepSelectionTimeout, stepNoMorePaths, stepDiskMissing},
	failmodel.Protocol:    {stepProtocolViolation, stepDriverIncompatible, stepDiskOffline},
	failmodel.Performance: {stepSlowIO, stepRetry, stepDiskTimeout},
}

// recoveredChain is the chain of an interconnect fault multipathing
// absorbed (the only kind a path can recover): I/O is rerouted and the
// chain stops below the RAID layer with a failover notice, which the
// parser must not count as a subsystem failure.
var recoveredChain = []Step{stepDeviceTimeout, stepAdapterReset, stepAbortedByHost,
	stepSelectionTimeout, stepPathFailover}

// Emit appends the message chain of one failure event to dst and
// returns the extended slice. It formats nothing.
//
//detlint:hotpath
func Emit(dst []Message, e failmodel.Event) []Message {
	chain := chains[e.Type]
	if e.Recovered {
		chain = recoveredChain
	}
	for _, s := range chain {
		t := e.Detected
		if d := steps[s].delay; d != atDetection {
			t = min(e.Time+d, e.Detected)
		}
		dst = append(dst, Message{Time: t, Disk: int32(e.Disk), Step: s, Cause: e.Cause})
	}
	return dst
}

// Tag returns the message's dotted event tag.
func (m Message) Tag() string { return steps[m.Step].tag }

// Line renders the message as the log line it stands for. f is the
// fleet the message's disk belongs to: the adapter number is derived
// from the disk's shelf position in the system, and the loop ID from
// its slot.
func (m Message) Line(f *fleet.Fleet) Line {
	st := &steps[m.Step]
	d := f.Disk(int(m.Disk))
	return Line{
		Time:     simtime.ToWall(m.Time),
		Tag:      st.tag,
		Severity: st.sev,
		Text:     fmt.Sprintf(st.text, 8+f.ShelfIndex(int(d.Shelf)), 16+int(d.Slot), fleet.Serial(int(m.Disk)), m.Cause),
	}
}
