package sweep

// Global trial claiming and the per-key topology share. Workers claim
// jobs one at a time in global order, so they cross scenario
// boundaries together, and a fleet key's run of jobs is served by one
// build: the first worker to need the key builds it and simulates on
// that fleet, and every later worker on the key cuts a fleet.Clone —
// a disk slab of its own over the build's shared, read-only topology.

import (
	"sync"

	"storagesubsys/internal/fleet"
)

// fleetShare hands out one Execute's jobs and the fleets they run on.
// Its counter is advanced under the same mutex that registers the key
// of the claimed job, so keys are registered in claim order: the share
// moves to a key when the first job of the key's run is claimed and
// drops the previous key's build at that moment. A worker that claims a
// job of the current key but is slow to reach the share still joins
// that key's build instead of starting its own.
type fleetShare struct {
	cfg    *Config
	runs   []scenarioRun
	trials int

	mu        sync.Mutex
	next, end int       // the next job to claim and the range's end
	cur       *keyBuild // the build of the last claimed job's key
}

// keyBuild is one fleet key's build within a share. Once the build is
// done, topo holds its topology with no disk slab, so the share never
// pins a worker's disks.
type keyBuild struct {
	key   FleetKey
	ready chan struct{} // the build in flight, closed when it ends; nil while none is
	topo  *fleet.Fleet  // the build's Topology; nil until it is done
}

// claim takes the next job in global order and the build of its key,
// or reports that the range is exhausted. Past the end it drops the
// current build, so a finished pool holds no topology the workers do
// not.
func (s *fleetShare) claim() (job int, kb *keyBuild, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= s.end {
		s.cur = nil
		return 0, nil, false
	}
	job = s.next
	s.next++
	if key := s.runs[job/s.trials].key; s.cur == nil || s.cur.key != key {
		s.cur = &keyBuild{key: key}
	}
	return job, s.cur, true
}

// fleet returns a fleet of kb's key whose disk slab the caller
// exclusively owns.
// The first caller builds it and keeps the built fleet. A caller that
// finds the build done takes a Clone, and one that finds it in flight
// waits for it and then clones. A panicking build must not strand its
// waiters: they build directly, the panic propagates into the
// builder's trial retry, and the key's next caller builds it again.
func (s *fleetShare) fleet(kb *keyBuild) *fleet.Fleet {
	s.mu.Lock()
	if kb.topo != nil {
		s.mu.Unlock()
		return kb.topo.Clone()
	}
	if ready := kb.ready; ready != nil {
		s.mu.Unlock()
		<-ready
		s.mu.Lock()
		topo := kb.topo
		s.mu.Unlock()
		if topo != nil {
			return topo.Clone()
		}
		return s.build(kb.key)
	}
	kb.ready = make(chan struct{})
	s.mu.Unlock()

	var f *fleet.Fleet
	defer func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		close(kb.ready)
		if f != nil {
			kb.topo = f.Topology()
			return
		}
		kb.ready = nil
	}()
	f = s.build(kb.key)
	return f
}

// build makes a fleet of the key without the share. The FleetSource
// seam (sweepd's cross-job cache) substitutes for the direct build; its
// contract — a fleet indistinguishable from build()'s output whose
// disk slab the caller exclusively owns — is what keeps the trial
// values byte-identical either way.
func (s *fleetShare) build(key FleetKey) *fleet.Fleet {
	seed := s.cfg.Seed
	if s.cfg.FleetSource != nil {
		return s.cfg.FleetSource(key, seed, func() *fleet.Fleet { return BuildFleet(key, seed) })
	}
	return BuildFleet(key, seed)
}
