package sweep

// Global trial claiming and the per-key fleet share. Workers claim jobs
// one at a time in global order, so they cross scenario boundaries
// together, and a fleet key's run of jobs is served by one
// fleet.Shared: one build, and a Clone of it for every other worker.

import (
	"sync"

	"storagesubsys/internal/fleet"
)

// fleetShare hands out one Execute's jobs and the fleets they run on.
// Its counter is advanced under the same mutex that registers the key
// of the claimed job, so keys are registered in claim order: the share
// moves to a key when the first job of the key's run is claimed and
// drops the previous key's Shared at that moment. A worker that claims
// a job of the current key but is slow to reach the Shared still joins
// that key's build instead of starting its own.
type fleetShare struct {
	cfg    *Config
	runs   []scenarioRun
	trials int

	mu        sync.Mutex
	next, end int           // the next job to claim and the range's end
	key       FleetKey      // the last claimed job's key
	cur       *fleet.Shared // that key's run's fleets
}

// claim takes the next job in global order and the Shared of its key's
// run, or reports that the range is exhausted. Past the end it drops
// the current Shared, so a finished pool holds no topology the workers
// do not.
func (s *fleetShare) claim() (job int, sh *fleet.Shared, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= s.end {
		s.cur = nil
		return 0, nil, false
	}
	job = s.next
	s.next++
	if key := s.runs[job/s.trials].key; s.cur == nil || s.key != key {
		s.key, s.cur = key, &fleet.Shared{}
	}
	return job, s.cur, true
}

// build makes a fleet of the key without the share. The FleetSource
// seam (sweepd's cross-job cache) substitutes for the direct build; its
// contract — a fleet indistinguishable from build()'s output whose
// delta the caller exclusively owns — is what keeps the trial
// values byte-identical either way.
func (s *fleetShare) build(key FleetKey) *fleet.Fleet {
	seed := s.cfg.Seed
	if s.cfg.FleetSource != nil {
		return s.cfg.FleetSource(key, seed, func() *fleet.Fleet { return BuildFleet(key, seed) })
	}
	return BuildFleet(key, seed)
}
