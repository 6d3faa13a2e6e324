// Package simtime pins down the study clock shared by the fleet builder,
// the failure simulator, the event-log renderer, and the analyses.
//
// The paper's data covers January 2004 through August 2007 — 44 months.
// All simulation timestamps are int64 seconds since StudyStart, which
// keeps event arithmetic cheap over multi-million event streams while
// still converting losslessly to wall-clock time for log rendering.
// Fleet disk records store their install and removal times as 32-bit
// seconds: the whole study window spans about 5% of that range.
package simtime

import "time"

// Seconds is a simulation timestamp: seconds since StudyStart.
type Seconds = int64

const (
	// SecondsPerHour is one hour of simulated time.
	SecondsPerHour Seconds = 3600
	// SecondsPerDay is one day of simulated time.
	SecondsPerDay Seconds = 24 * SecondsPerHour
	// SecondsPerYear uses the Julian year, the convention under which
	// annualized failure rates are computed.
	SecondsPerYear Seconds = 365*SecondsPerDay + SecondsPerDay/4
	// StudyMonths is the length of the observation window in months.
	StudyMonths = 44
	// StudyDuration is the length of the observation window: 44 months
	// of 30.44 days (the same convention as StudyYears below).
	StudyDuration Seconds = StudyMonths * SecondsPerYear / 12
)

// StudyStart is the wall-clock instant of simulation time zero
// (January 2004, the start of the paper's collection window).
var StudyStart = time.Date(2004, time.January, 1, 0, 0, 0, 0, time.UTC)

// StudyYears is the observation window length in years.
func StudyYears() float64 { return float64(StudyDuration) / float64(SecondsPerYear) }

// ToWall converts a simulation timestamp to wall-clock time.
func ToWall(t Seconds) time.Time {
	return StudyStart.Add(time.Duration(t) * time.Second)
}

// FromWall converts a wall-clock time to a simulation timestamp.
func FromWall(t time.Time) Seconds {
	return Seconds(t.Sub(StudyStart) / time.Second)
}

// Years converts a duration in simulation seconds to years.
func Years(d Seconds) float64 { return float64(d) / float64(SecondsPerYear) }

// YearsToSeconds converts a duration in years to simulation seconds.
func YearsToSeconds(y float64) Seconds { return Seconds(y * float64(SecondsPerYear)) }

// NextScrub returns the next hourly proactive-verification boundary at or
// after t. The storage systems in the study "periodically send data
// verification requests to all disks" hourly, so a failure occurring at t
// is detected at NextScrub(t); this is the source of the up-to-one-hour
// detection lag visible at the left edge of the paper's Figure 9 CDFs.
func NextScrub(t Seconds) Seconds {
	if t%SecondsPerHour == 0 {
		return t
	}
	return (t/SecondsPerHour + 1) * SecondsPerHour
}

// Clamp limits t to the study window [0, StudyDuration].
func Clamp(t Seconds) Seconds {
	if t < 0 {
		return 0
	}
	if t > StudyDuration {
		return StudyDuration
	}
	return t
}
