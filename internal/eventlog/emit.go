package eventlog

import (
	"fmt"
	"time"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
)

// DeviceAddress renders a disk's "adapter.loop" log address from its
// topology position, in the style of the paper's "device 8.24": the
// adapter number is derived from the shelf's position in the system and
// the loop ID from the disk's slot.
func DeviceAddress(shelfIndex, slot int) string {
	return fmt.Sprintf("%d.%d", 8+shelfIndex, 16+slot)
}

// Emitter renders failure events into the layered message chains a
// storage system logs while the failure propagates FC -> SCSI -> RAID.
type Emitter struct {
	fleet *fleet.Fleet
}

// NewEmitter returns an emitter over the given fleet.
func NewEmitter(f *fleet.Fleet) *Emitter {
	return &Emitter{fleet: f}
}

// Emit renders the message chain for one failure event. The final
// message of a visible failure is the RAID-layer event the classifier
// keys on; multipath-recovered faults stop below the RAID layer (the
// storage subsystem absorbed them), emitting a path-failover notice
// instead — the parser must not count those as subsystem failures.
func (em *Emitter) Emit(e failmodel.Event) []Message {
	d := &em.fleet.Disks[e.Disk]
	shelf := &em.fleet.Shelves[e.Shelf]
	dev := DeviceAddress(int(shelf.Index), int(d.Slot))
	serial := fleet.Serial(e.Disk)
	occurred := simtime.ToWall(e.Time)
	detected := simtime.ToWall(e.Detected)

	var msgs []Message
	step := func(offset time.Duration, tag string, sev Severity, text string) {
		tm := occurred.Add(offset)
		// Propagation messages never postdate the RAID layer's
		// detection of the failure: when the next hourly scrub lands
		// inside the propagation window, the chain compresses into it.
		if tm.After(detected) {
			tm = detected
		}
		msgs = append(msgs, Message{
			Time:     tm,
			Tag:      tag,
			Severity: sev,
			Device:   dev,
			Serial:   serial,
			Text:     text,
		})
	}

	switch e.Type {
	case failmodel.PhysicalInterconnect:
		// The paper's Figure 3 chain.
		step(0, "fci.device.timeout", Error,
			fmt.Sprintf("Adapter %d encountered a device timeout on device %s", 8+shelf.Index, dev))
		step(14*time.Second, "fci.adapter.reset", Info,
			fmt.Sprintf("Resetting Fibre Channel adapter %d.", 8+shelf.Index))
		step(14*time.Second, "scsi.cmd.abortedByHost", Error,
			fmt.Sprintf("Device %s: Command aborted by host adapter", dev))
		step(36*time.Second, "scsi.cmd.selectionTimeout", Error,
			fmt.Sprintf("Device %s: Adapter/target error: Targeted device did not respond to requested I/O. I/O will be retried.", dev))
		if e.Recovered {
			// Multipathing absorbed the fault: I/O rerouted, no RAID event.
			step(46*time.Second, "fcp.path.failover", Info,
				fmt.Sprintf("Device %s: I/O rerouted to secondary path after primary path failure (%s).", dev, e.Cause))
			break
		}
		step(46*time.Second, "scsi.cmd.noMorePaths", Error,
			fmt.Sprintf("Device %s: No more paths to device. All retries have failed.", dev))
		em.raidStep(&msgs, e, detected, dev, serial)

	case failmodel.DiskFailure:
		step(0, "disk.ioMediumError", Error,
			fmt.Sprintf("Device %s: medium error during read: block remap attempted.", dev))
		step(22*time.Second, "scsi.cmd.checkCondition", Error,
			fmt.Sprintf("Device %s: check condition: sense key Medium Error.", dev))
		step(60*time.Second, "shm.threshold.exceeded", Warning,
			fmt.Sprintf("Disk %s S/N [%s] has exceeded its failure-prediction threshold.", dev, serial))
		em.raidStep(&msgs, e, detected, dev, serial)

	case failmodel.Protocol:
		step(0, "scsi.cmd.protocolViolation", Error,
			fmt.Sprintf("Device %s: unexpected response for tagged command; protocol violation suspected.", dev))
		step(9*time.Second, "disk.driver.incompatible", Error,
			fmt.Sprintf("Device %s: firmware/driver handshake failed (%s).", dev, e.Cause))
		em.raidStep(&msgs, e, detected, dev, serial)

	case failmodel.Performance:
		step(0, "disk.slowIO", Warning,
			fmt.Sprintf("Device %s: I/O completion time above threshold.", dev))
		step(31*time.Second, "scsi.cmd.retry", Warning,
			fmt.Sprintf("Device %s: retrying delayed I/O request.", dev))
		em.raidStep(&msgs, e, detected, dev, serial)
	}
	return msgs
}

// raidStep appends the RAID-layer event message at detection time.
func (em *Emitter) raidStep(msgs *[]Message, e failmodel.Event, detected time.Time, dev, serial string) {
	var text string
	switch e.Type {
	case failmodel.DiskFailure:
		text = fmt.Sprintf("Disk %s S/N [%s] failed; starting reconstruction.", dev, serial)
	case failmodel.PhysicalInterconnect:
		text = fmt.Sprintf("File system Disk %s S/N [%s] is missing.", dev, serial)
	case failmodel.Protocol:
		text = fmt.Sprintf("Disk %s S/N [%s] is offline: requests not serviced correctly.", dev, serial)
	case failmodel.Performance:
		text = fmt.Sprintf("Disk %s S/N [%s] not responding in time; marked failed by timeout policy.", dev, serial)
	}
	*msgs = append(*msgs, Message{
		Time:     detected,
		Tag:      RAIDTagFor(e.Type),
		Severity: Info,
		Device:   dev,
		Serial:   serial,
		Text:     text,
	})
}
