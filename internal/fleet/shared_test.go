package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"storagesubsys/internal/simtime"
)

// parkedOnShared counts the goroutines blocked in Shared.Fleet, waiting
// for another caller's build.
func parkedOnShared() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("[chan receive")) && bytes.Contains(g, []byte("fleet.(*Shared).Fleet")) {
			n++
		}
	}
	return n
}

// waitParked polls until n goroutines are parked in Shared.Fleet and
// reports whether they were within 10 s.
func waitParked(n int) bool {
	for deadline := time.Now().Add(10 * time.Second); parkedOnShared() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestSharedBuildsOnceClonesAfter races callers of one Shared: the
// population is built once, only its builder sees built, and every
// caller gets a fleet of its own equal to a direct build's.
func TestSharedBuildsOnceClonesAfter(t *testing.T) {
	var s Shared
	var builds atomic.Int32
	build := func() *Fleet {
		builds.Add(1)
		return BuildDefault(0.002, 11)
	}
	const callers = 8
	fleets := make([]*Fleet, callers)
	var nbuilt atomic.Int32
	var wg sync.WaitGroup
	for i := range fleets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, built := s.Fleet(build)
			if built {
				nbuilt.Add(1)
			}
			fleets[i] = f
		}()
	}
	wg.Wait()

	if builds.Load() != 1 || nbuilt.Load() != 1 {
		t.Fatalf("%d builds, %d callers saw built; want 1 and 1", builds.Load(), nbuilt.Load())
	}
	want := BuildDefault(0.002, 11)
	seen := map[*Fleet]bool{}
	for i, f := range fleets {
		if seen[f] {
			t.Fatalf("caller %d got a fleet already handed out", i)
		}
		seen[f] = true
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("caller %d's fleet differs from a direct build", i)
		}
	}
}

// TestSharedKeepsTopologyOnly: a Shared keeps a clone of its build,
// sharing the build's topology slabs but never its delta, so it pins
// no owner's trial state.
func TestSharedKeepsTopologyOnly(t *testing.T) {
	var s Shared
	f, built := s.Fleet(func() *Fleet { return BuildDefault(0.002, 11) })
	if !built {
		t.Fatal("the first caller did not build")
	}
	f.Remove(0, simtime.SecondsPerYear, true)
	f.Replace(f.Disk(0), simtime.SecondsPerYear+1)
	if s.topo == f || s.topo.NumDisks() != f.NumDisks()-1 || s.topo.Disk(0) == f.Disk(0) {
		t.Fatal("the Shared keeps the builder's delta")
	}
	if unsafe.SliceData(s.topo.Systems) != unsafe.SliceData(f.Systems) || unsafe.SliceData(s.topo.Members) != unsafe.SliceData(f.Members) {
		t.Fatal("the Shared keeps a copy of the build's topology, not its slabs")
	}
}

// TestSharedBuildPanicHandsOn: a build that panics while callers wait
// on it publishes nothing, its panic reaches its own caller, and the
// first waiter to wake builds in its place; that build is the one kept
// and the other waiters clone it.
func TestSharedBuildPanicHandsOn(t *testing.T) {
	var s Shared
	const waiters = 3
	started, panicked := make(chan struct{}), make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		s.Fleet(func() *Fleet {
			close(started)
			if !waitParked(waiters) {
				t.Errorf("%d callers parked on the build, want %d", parkedOnShared(), waiters)
			}
			panic("scripted build panic")
		})
	}()
	<-started

	var builds, nbuilt atomic.Int32
	var rebuilt *Fleet
	fleets := make([]*Fleet, waiters)
	var wg sync.WaitGroup
	for i := range fleets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, built := s.Fleet(func() *Fleet {
				builds.Add(1)
				return BuildDefault(0.002, 11)
			})
			if built {
				nbuilt.Add(1)
				rebuilt = f
			}
			fleets[i] = f
		}()
	}
	if pv := <-panicked; pv != "scripted build panic" {
		t.Fatalf("the builder recovered %v, want its build's panic", pv)
	}
	wg.Wait()

	if builds.Load() != 1 || nbuilt.Load() != 1 {
		t.Fatalf("after the panic: %d builds, %d callers saw built; want 1 and 1", builds.Load(), nbuilt.Load())
	}
	if unsafe.SliceData(s.topo.Systems) != unsafe.SliceData(rebuilt.Systems) {
		t.Fatal("the Shared does not keep the waiter's build")
	}
	want := BuildDefault(0.002, 11)
	for i, f := range fleets {
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("waiter %d's fleet differs from a direct build", i)
		}
	}
	if _, built := s.Fleet(func() *Fleet { panic("built twice") }); built {
		t.Fatal("a caller after the rebuild built again")
	}
}
