package sweepd

// Cross-job fleet cache. Building a fleet is the dominant fixed cost of
// a sweep over a topology (population synthesis scales with the system
// count), and concurrent jobs frequently sweep the same grid: every
// scenario that doesn't override a topology knob shares one
// sweep.FleetKey. The cache makes all of them pay for one build. It
// plugs into the engine through Config.FleetSource, whose contract —
// return a fleet indistinguishable from build()'s output whose disk
// slab the caller exclusively owns — it satisfies by keeping the
// topology of each build per (FleetKey, seed). The first requester gets
// the built fleet itself; every later one gets a fleet.Clone, a fresh
// as-built disk slab over the shared topology. The topology is
// read-only in every fleet, so clones are bit-identical to direct
// builds and the sweep bytes are unchanged
// (TestFleetSourceCachedClones in internal/sweep pins this).
//
// Concurrency is singleflight: the first requester of a key builds
// while later requesters of the same key block on the entry's ready
// channel instead of duplicating the work. Memory is bounded by an LRU
// byte budget over the ApproxBytes of the as-built fleets the entries
// serve — eviction drops the cache's reference only (outstanding fleets
// keep the topology they share alive, and nothing they own dangles),
// and a re-request simply rebuilds. An entry keeps only its topology,
// about a third of the fleet it is charged for, so the budget bounds
// the number of cached builds as a budget of whole fleets would: a
// given budget holds as many keys, and fills after as many builds,
// whatever share of a fleet the cache keeps. The memory it holds is
// at most about a third of the budget.

import (
	"container/list"
	"sync"

	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sweep"
)

// DefaultCacheBytes is the fleet cache budget when Config.CacheBytes
// is zero: 512 MiB, roughly 38 quarter-scale fleets (ApproxBytes of
// one is about 13 MiB), of which the cache holds the topologies, about
// 4.7 MiB each.
const DefaultCacheBytes = 512 << 20

// fleetCacheKey identifies one build: the topology key plus
// the sweep seed the population was synthesized from.
type fleetCacheKey struct {
	key  sweep.FleetKey
	seed int64
}

// cacheEntry is one cached build. ready is closed once topo is
// populated; waiters block on it for singleflight semantics. topo is
// the build's fleet.Topology, with no disk slab, and bytes the
// ApproxBytes of the as-built fleet, charged against the budget.
type cacheEntry struct {
	ready chan struct{}
	topo  *fleet.Fleet
	bytes int64
	elem  *list.Element
}

// CacheStats counts cache traffic. Builds is the number the
// concurrency tests probe: two jobs sweeping the same topology must
// leave it at one.
type CacheStats struct {
	// Builds counts misses that constructed a fleet.
	Builds int
	// Hits counts requests served from a cached (possibly in-flight)
	// build.
	Hits int
	// Evictions counts cached topologies dropped by the byte budget.
	Evictions int
}

// FleetCache is the cross-job fleet cache. The zero value is not
// usable; construct with NewFleetCache.
type FleetCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[fleetCacheKey]*cacheEntry
	lru     *list.List // of fleetCacheKey; front = most recent
	stats   CacheStats
}

// NewFleetCache returns a cache bounded to budget bytes of as-built
// fleets (ApproxBytes accounting). budget <= 0 means unbounded.
func NewFleetCache(budget int64) *FleetCache {
	return &FleetCache{
		budget:  budget,
		entries: map[fleetCacheKey]*cacheEntry{},
		lru:     list.New(),
	}
}

// Get returns a fleet for (key, seed) whose disk slab the caller
// exclusively owns, building the topology at most once per cached
// lifetime however many requesters race. Its signature is exactly
// Config.FleetSource, so a server wires it with cfg.FleetSource =
// cache.Get.
func (c *FleetCache) Get(key sweep.FleetKey, seed int64, build func() *fleet.Fleet) *fleet.Fleet {
	k := fleetCacheKey{key, seed}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.lru.MoveToFront(e.elem)
		c.stats.Hits++
		c.mu.Unlock()
		<-e.ready
		if e.topo != nil {
			return e.topo.Clone()
		}
		// The build this entry was waiting on panicked and the entry was
		// dropped; build directly — the panic will have propagated to the
		// original requester's trial, which the retry machinery handles.
		return build()
	}
	e := &cacheEntry{ready: make(chan struct{})}
	e.elem = c.lru.PushFront(k)
	c.entries[k] = e
	c.stats.Builds++
	c.mu.Unlock()

	defer func() {
		if e.topo == nil {
			// build panicked: unlink the entry so waiters and future
			// requesters fall back to building, then let the panic
			// propagate into the trial's quarantine/retry boundary.
			c.mu.Lock()
			c.dropLocked(k, e)
			c.mu.Unlock()
		}
		close(e.ready)
	}()
	f := build()
	// Keep the topology only: the built fleet's disk slab goes to this
	// requester, and every later one cuts its own from the topology.
	// The entry is charged the whole as-built fleet (see the header).
	topo := f.Topology()
	e.bytes = int64(f.ApproxBytes())
	c.mu.Lock()
	c.used += e.bytes
	c.evictLocked()
	c.mu.Unlock()
	e.topo = topo
	return f
}

// Stats snapshots the traffic counters.
func (c *FleetCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// evictLocked drops least-recently-used completed builds until the
// budget is met. In-flight builds (bytes not yet accounted, waiters
// parked on ready) are skipped so singleflight is never torn down
// under its waiters. A single over-budget build is allowed to evict
// itself — its requester keeps the built fleet, and the next request
// rebuilds.
func (c *FleetCache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && c.used > c.budget; {
		prev := el.Prev()
		k := el.Value.(fleetCacheKey)
		if e := c.entries[k]; e.bytes > 0 {
			c.dropLocked(k, e)
			c.stats.Evictions++
		}
		el = prev
	}
}

// dropLocked unlinks an entry from the map, the LRU list, and the byte
// accounting. Outstanding fleets are unaffected. A no-op when the
// entry was already dropped (e.g. evicted while its build was still
// publishing), so accounting is never charged twice.
func (c *FleetCache) dropLocked(k fleetCacheKey, e *cacheEntry) {
	if c.entries[k] != e {
		return
	}
	delete(c.entries, k)
	c.lru.Remove(e.elem)
	c.used -= e.bytes
}
