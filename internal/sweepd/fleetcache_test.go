package sweepd

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sweep"
)

// tinyKey is a minimal topology for cache tests: small enough that a
// build is milliseconds, distinct per span so tests can mint disjoint
// keys.
func tinyKey(span int) sweep.FleetKey {
	return sweep.FleetKey{Scale: 0.002, Span: span}
}

// held reports the number of cached builds (in-flight included) and
// the bytes currently charged.
func held(c *FleetCache) (entries int, used int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.used
}

// TestFleetCacheSingleflight races many requesters of one key against
// a build function that counts invocations: the topology must be built
// exactly once, every requester must get its own fleet, and every
// fleet must equal a direct build.
func TestFleetCacheSingleflight(t *testing.T) {
	c := NewFleetCache(0)
	key := tinyKey(1)
	var builds sync.Map
	build := func() *fleet.Fleet {
		n, _ := builds.LoadOrStore("n", new(int))
		*(n.(*int))++
		return sweep.BuildFleet(key, 42)
	}

	const requesters = 8
	clones := make([]*fleet.Fleet, requesters)
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clones[i] = c.Get(key, 42, build)
		}(i)
	}
	wg.Wait()

	if st := c.Stats(); st.Builds != 1 {
		t.Fatalf("cache stats report %d builds for one key; want 1", st.Builds)
	}
	n, _ := builds.Load("n")
	if got := *(n.(*int)); got != 1 {
		t.Fatalf("build function ran %d times; want 1 (singleflight)", got)
	}
	want := sweep.BuildFleet(key, 42)
	seen := map[*fleet.Fleet]bool{}
	for i, f := range clones {
		if seen[f] {
			t.Fatalf("requester %d received a fleet pointer already handed out", i)
		}
		seen[f] = true
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("requester %d's clone differs from a direct build", i)
		}
	}
}

// TestFleetCacheKeepsTopologyOnly: the budget is charged the build's
// charge, and the builder gets the built fleet itself. That an entry's
// fleet.Shared keeps no delta is TestSharedKeepsTopologyOnly in
// internal/fleet.
func TestFleetCacheKeepsTopologyOnly(t *testing.T) {
	c := NewFleetCache(0)
	key := tinyKey(1)
	var built *fleet.Fleet
	got := c.Get(key, 42, func() *fleet.Fleet { built = sweep.BuildFleet(key, 42); return built })
	if got != built {
		t.Fatal("the builder did not get the built fleet")
	}
	want := charge(sweep.BuildFleet(key, 42))
	if _, used := held(c); used != want {
		t.Fatalf("cache charged %d bytes for an as-built fleet of %d", used, want)
	}
}

// parkedOnBuild counts the goroutines blocked in a fleet.Shared,
// waiting for another requester's build.
func parkedOnBuild() int {
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

// TestFleetCacheBuildPanic: a build that panics with requesters parked
// on it reaches its own requester only. The first waiter to wake builds
// in its place and the cache keeps that build: no requester hangs, the
// key is charged exactly once, the rebuild counts as the key's one
// Build, the other waiters and later requesters count as Hits, and the
// panicking request counts as neither.
func TestFleetCacheBuildPanic(t *testing.T) {
	c := NewFleetCache(0)
	key := tinyKey(1)
	const waiters = 3
	started, panicked := make(chan struct{}), make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Get(key, 42, func() *fleet.Fleet {
			close(started)
			for deadline := time.Now().Add(10 * time.Second); parkedOnBuild() < waiters; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("%d requesters parked on the build, want %d", parkedOnBuild(), waiters)
					break
				}
			}
			panic("scripted build panic")
		})
	}()
	<-started

	var builds atomic.Int32
	fleets := make([]*fleet.Fleet, waiters)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := range fleets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fleets[i] = c.Get(key, 42, func() *fleet.Fleet {
				builds.Add(1)
				return sweep.BuildFleet(key, 42)
			})
		}()
	}
	go func() { wg.Wait(); close(done) }()
	if pv := <-panicked; pv != "scripted build panic" {
		t.Fatalf("the builder recovered %v, want its build's panic", pv)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a requester is still waiting 30 s after the panicking build")
	}

	if builds.Load() != 1 {
		t.Fatalf("the waiters built %d times after the panic; want 1", builds.Load())
	}
	want := sweep.BuildFleet(key, 42)
	for i, f := range fleets {
		if !reflect.DeepEqual(f, want) {
			t.Fatalf("waiter %d's fleet differs from a direct build", i)
		}
	}
	c.Get(key, 42, func() *fleet.Fleet { panic("the cache did not keep the rebuild") })
	if st := c.Stats(); st != (CacheStats{Builds: 1, Hits: waiters}) {
		t.Fatalf("stats = %+v; want 1 build and %d hits", st, waiters)
	}
	if n, used := held(c); n != 1 || used != charge(want) {
		t.Fatalf("cache holds %d entries charged %d bytes; want 1 charged %d", n, used, charge(want))
	}
}

// TestFleetCacheHitCounting verifies the hit/build split across
// repeated and distinct keys.
func TestFleetCacheHitCounting(t *testing.T) {
	c := NewFleetCache(0)
	direct := func(key sweep.FleetKey) func() *fleet.Fleet {
		return func() *fleet.Fleet { return sweep.BuildFleet(key, 7) }
	}
	c.Get(tinyKey(1), 7, direct(tinyKey(1)))
	c.Get(tinyKey(1), 7, direct(tinyKey(1)))
	c.Get(tinyKey(2), 7, direct(tinyKey(2)))
	st := c.Stats()
	if st.Builds != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v; want 2 builds, 1 hit", st)
	}
	if n, _ := held(c); n != 2 {
		t.Fatalf("cache holds %d entries; want 2", n)
	}
}

// TestFleetCacheSeedSeparation: same topology under different sweep
// seeds must be distinct cache entries — the populations differ.
func TestFleetCacheSeedSeparation(t *testing.T) {
	c := NewFleetCache(0)
	key := tinyKey(1)
	a := c.Get(key, 1, func() *fleet.Fleet { return sweep.BuildFleet(key, 1) })
	b := c.Get(key, 2, func() *fleet.Fleet { return sweep.BuildFleet(key, 2) })
	if st := c.Stats(); st.Builds != 2 {
		t.Fatalf("stats report %d builds for two seeds; want 2", st.Builds)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different sweep seeds produced equal fleets; seed is not separating cache entries")
	}
}

// TestFleetCacheLRUEviction fills a budget sized for two fleets with
// three keys, touching the first in between: the untouched middle
// key must be the one evicted, and evicted entries must be rebuilt on
// re-request while outstanding clones stay usable.
func TestFleetCacheLRUEviction(t *testing.T) {
	one := charge(sweep.BuildFleet(tinyKey(1), 42))
	budget := one*2 + one/2
	c := NewFleetCache(budget)
	get := func(span int) *fleet.Fleet {
		key := tinyKey(span)
		return c.Get(key, 42, func() *fleet.Fleet { return sweep.BuildFleet(key, 42) })
	}

	get(1)
	get(2)
	get(1) // key 1 now most-recent; key 2 is LRU
	evictee := get(2)
	_ = get(3) // over budget: evicts key 1? no — key 2 was just touched; key 1 is LRU
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a two-fleet budget with three keys; stats = %+v", st)
	}
	if _, used := held(c); used > budget {
		t.Fatalf("cache holds %d bytes over the %d budget", used, budget)
	}
	// The fleet handed out before eviction owns its disks and keeps
	// the topology it shares alive after the entry is dropped.
	if !reflect.DeepEqual(evictee, sweep.BuildFleet(tinyKey(2), 42)) {
		t.Fatal("clone handed out before eviction no longer matches a direct build")
	}
	// A re-request of an evicted key is a fresh build, not a hit.
	before := c.Stats().Builds
	get(1)
	if c.Stats().Builds == before {
		t.Fatal("re-request of an evicted key did not rebuild")
	}
}

// TestFleetCacheUnboundedNeverEvicts pins budget <= 0 as "no budget".
func TestFleetCacheUnboundedNeverEvicts(t *testing.T) {
	c := NewFleetCache(0)
	for span := 1; span <= 4; span++ {
		key := tinyKey(span)
		c.Get(key, 42, func() *fleet.Fleet { return sweep.BuildFleet(key, 42) })
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("unbounded cache evicted %d entries", st.Evictions)
	}
	if n, _ := held(c); n != 4 {
		t.Fatalf("unbounded cache holds %d entries; want 4", n)
	}
}

// TestFleetCacheChargePinned pins what the cache charges per build:
// the topology slabs' capacities plus an as-built disk slab of 20 B per
// disk with one trial's replacement room. A charge that shrinks lets
// the budget admit more builds, and the svc benchmark's live heap grows
// with what the cache holds. The keys are the svc benchmark job's
// (scale 0.02, several seeds) and one quarter-scale ops key with and
// without its churn override.
func TestFleetCacheChargePinned(t *testing.T) {
	for _, tc := range []struct {
		key  sweep.FleetKey
		seed int64
		want int64
	}{
		{sweep.FleetKey{Scale: 0.02}, 1, 1110220},
		{sweep.FleetKey{Scale: 0.02}, 42, 1109756},
		{sweep.FleetKey{Scale: 0.02}, 1001, 1065780},
		{sweep.FleetKey{Scale: 0.25}, 42, 13965448},
		{sweep.FleetKey{Scale: 0.25, Churn: 4}, 42, 15131328},
	} {
		c := NewFleetCache(0)
		c.Get(tc.key, tc.seed, func() *fleet.Fleet { return sweep.BuildFleet(tc.key, tc.seed) })
		if _, used := held(c); used != tc.want {
			t.Errorf("key %+v seed %d: charged %d bytes, want %d", tc.key, tc.seed, used, tc.want)
		}
	}
}
