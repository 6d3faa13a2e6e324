package fleet

import "sync"

// Shared serves many owners from one build of a population: the first
// caller of Fleet builds it and keeps the built fleet, and every later
// caller gets a Clone of its topology, waiting on the build while it
// runs. It is the sharing contract behind the sweep engine's per-key
// share and sweepd's cross-job fleet cache:
//
//   - Fleet builds at most once per successful build, however many
//     callers race; only the caller that built sees built == true.
//   - Each fleet it returns owns its delta; the topology slabs are
//     shared and read-only in every fleet (see Clone). A clone is
//     indistinguishable from the build, so output is byte-identical
//     whoever built.
//   - The Shared keeps only a Clone of the build, never its delta, so
//     it pins no owner's trial state.
//   - A build that panics publishes nothing and its panic reaches its
//     caller; the first waiter to wake builds in its place.
//
// The zero value is ready to use.
type Shared struct {
	mu       sync.Mutex
	topo     *Fleet        // a Clone of the build; nil until a build returns
	building chan struct{} // closed when the build in flight ends; nil while none is
}

// Fleet returns a fleet whose delta the caller exclusively owns,
// and whether this call built it with build.
func (s *Shared) Fleet(build func() *Fleet) (f *Fleet, built bool) {
	s.mu.Lock()
	for s.topo == nil && s.building != nil {
		wait := s.building
		s.mu.Unlock()
		<-wait
		s.mu.Lock()
	}
	if topo := s.topo; topo != nil {
		s.mu.Unlock()
		return topo.Clone(), false
	}
	done := make(chan struct{})
	s.building = done
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if f != nil {
			s.topo = f.Clone()
		}
		s.building = nil
		s.mu.Unlock()
		close(done)
	}()
	return build(), true
}
