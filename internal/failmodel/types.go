// Package failmodel defines the failure vocabulary of the study — the
// four storage subsystem failure types of the paper's Section 2.3, the
// finer root causes beneath them — and the calibrated generative
// parameters the simulator (internal/sim) uses to animate a fleet.
//
// The generative structure mirrors the causal story told in the paper's
// Section 5.2.3 ("Causes of Correlation"):
//
//   - Disk failures have a per-disk baseline hazard (by disk model) plus
//     a shelf-shared environmental component (cooling/temperature
//     episodes) that makes same-shelf disk failures correlated but only
//     mildly bursty.
//   - Physical interconnect failures arrive as shelf-level episodes
//     (cable, HBA port, backplane, shelf power): one hardware fault
//     makes several disks appear missing within minutes–hours, the most
//     bursty failure type.
//   - Protocol failures arrive as system-level episodes (buggy or
//     incompatible driver rollouts) hitting disks across shelves.
//   - Performance failures arrive as shelf-level partial-failure
//     episodes (unstable connectivity, recovery-loaded disks).
package failmodel

import (
	"fmt"
	"slices"

	"storagesubsys/internal/simtime"
)

// FailureType is one of the paper's four storage subsystem failure
// categories along the I/O request path.
type FailureType uint8

// The four failure types, in the paper's order.
const (
	DiskFailure FailureType = iota
	PhysicalInterconnect
	Protocol
	Performance
)

// NumTypes is the number of failure types: per-type values are kept in
// [NumTypes]T arrays indexed by FailureType.
const NumTypes = 4

// Types lists all failure types in display order.
var Types = []FailureType{DiskFailure, PhysicalInterconnect, Protocol, Performance}

func (t FailureType) String() string {
	switch t {
	case DiskFailure:
		return "Disk Failure"
	case PhysicalInterconnect:
		return "Physical Interconnect Failure"
	case Protocol:
		return "Protocol Failure"
	case Performance:
		return "Performance Failure"
	default:
		return fmt.Sprintf("FailureType(%d)", int(t))
	}
}

// Short returns a compact label for tables.
func (t FailureType) Short() string {
	switch t {
	case DiskFailure:
		return "disk"
	case PhysicalInterconnect:
		return "interconnect"
	case Protocol:
		return "protocol"
	case Performance:
		return "performance"
	default:
		return "unknown"
	}
}

// Cause is the root cause beneath a failure type. Causes determine which
// failures multipathing can absorb and which log message chain a failure
// emits.
type Cause uint8

// Root causes grouped by the failure type they produce.
const (
	// Disk failure causes.
	CauseDiskMedia      Cause = iota // imperfect media, scratches, broken sectors
	CauseDiskMechanical              // spindle/head mechanics, rotational vibration
	CauseDiskEnv                     // shelf environment episode (cooling, temperature)

	// Physical interconnect causes.
	CauseCable      // broken/degraded FC cable — recoverable via second path
	CauseHBAPort    // host adapter port fault — recoverable via second path
	CauseBackplane  // shelf backplane errors — NOT recoverable by multipathing
	CauseShelfPower // shelf enclosure power outage — NOT recoverable
	CauseSharedHBA  // both "logical" adapters share one physical HBA — NOT recoverable

	// Protocol causes.
	CauseDriverBug        // software bug in disk/shelf drivers
	CauseFirmwareIncompat // protocol incompatibility between disk/shelf firmware and storage head

	// Performance causes.
	CauseSlowIO       // unstable connectivity, timed-out but visible disk
	CauseRecoveryLoad // disk busy with internal recovery (sector remapping)
)

func (c Cause) String() string {
	switch c {
	case CauseDiskMedia:
		return "disk-media"
	case CauseDiskMechanical:
		return "disk-mechanical"
	case CauseDiskEnv:
		return "disk-environment"
	case CauseCable:
		return "fc-cable"
	case CauseHBAPort:
		return "hba-port"
	case CauseBackplane:
		return "shelf-backplane"
	case CauseShelfPower:
		return "shelf-power"
	case CauseSharedHBA:
		return "shared-hba"
	case CauseDriverBug:
		return "driver-bug"
	case CauseFirmwareIncompat:
		return "firmware-incompat"
	case CauseSlowIO:
		return "slow-io"
	case CauseRecoveryLoad:
		return "recovery-load"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// Type returns the failure type this cause produces.
func (c Cause) Type() FailureType {
	switch c {
	case CauseDiskMedia, CauseDiskMechanical, CauseDiskEnv:
		return DiskFailure
	case CauseCable, CauseHBAPort, CauseBackplane, CauseShelfPower, CauseSharedHBA:
		return PhysicalInterconnect
	case CauseDriverBug, CauseFirmwareIncompat:
		return Protocol
	case CauseSlowIO, CauseRecoveryLoad:
		return Performance
	default:
		panic("failmodel: unknown cause")
	}
}

// PathRecoverable reports whether a second independent interconnect can
// absorb this cause. Backplane, shelf power and shared-physical-HBA
// faults defeat multipathing — the reason the paper gives for dual-path
// AFR being far above the idealized 0.04% (Section 4.3).
func (c Cause) PathRecoverable() bool {
	return c == CauseCable || c == CauseHBAPort
}

// Event is one storage subsystem failure occurrence at a disk. Events
// are the unit every analysis in internal/core consumes.
//
// After the fleet, a trial's event log is the largest thing it holds,
// so an event is 40 bytes and holds no pointer (TestEventLayout pins
// both), and the log is a noscan allocation the garbage collector never
// walks. The IDs are int32, as fleet.Disk stores them, since no fleet
// numbers 2^31 components; Type and Cause are bytes.
type Event struct {
	// Time is when the failure occurred.
	Time simtime.Seconds
	// Detected is when the hourly proactive verification noticed it
	// (simtime.NextScrub(Time) plus nothing else); analyses that mimic
	// the paper use Detected, since the logs only record detection.
	Detected simtime.Seconds
	// Type is the RAID-layer failure classification.
	Type FailureType
	// Cause is the underlying root cause.
	Cause Cause
	// Disk, Shelf, System, Group identify the affected component by
	// fleet ID. Group is -1 for spare disks.
	Disk, Shelf, System, Group int32
	// Recovered marks failures absorbed below the RAID layer (e.g. a
	// cable fault on a dual-path subsystem). Recovered events never
	// surface as storage subsystem failures; they are retained so the
	// multipath analyses can measure what redundancy absorbed.
	Recovered bool
}

// Visible reports whether the event surfaced as a storage subsystem
// failure (i.e. reached the RAID layer).
func (e Event) Visible() bool { return !e.Recovered }

// SortEvents sorts events in place by cmp, which compares the events at
// two indices. It sorts 4-byte indices, not events, with slices.SortFunc,
// which makes the same comparisons and swaps whatever it sorts: where cmp
// does not look at the indices themselves, ties end in the order
// slices.SortFunc over the events would give. It then moves each event
// once by following the sorted permutation's cycles. perm is
// the caller's recycled scratch (nil for none); its contents are
// overwritten and it is returned for the next call, so the only memory
// a sort needs is 4 bytes per event.
//
//detlint:hotpath
func SortEvents(events []Event, perm []int32, cmp func(a, b int32) int) []int32 {
	if cap(perm) < len(events) {
		// Sized to the event buffer's capacity: a recycled buffer
		// regrows only when the events' does.
		perm = make([]int32, len(events), cap(events))
	}
	perm = perm[:len(events)]
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, cmp)
	permute(events, perm)
	return perm
}

// permute reorders events in place so that slot i receives the event
// that was at perm[i], moving each event once with no second buffer. It
// marks each visited slot by complementing it, so perm is consumed.
//
//detlint:hotpath
func permute(events []Event, perm []int32) {
	for i := range perm {
		if perm[i] < 0 {
			continue // moved as part of an earlier cycle
		}
		first := events[i]
		j := i
		for {
			k := int(perm[j])
			perm[j] = ^perm[j]
			if k == i {
				events[j] = first
				break
			}
			events[j] = events[k]
			j = k
		}
	}
}
