package sweepd

// Cross-job fleet cache. Building a fleet is the dominant fixed cost of
// a sweep over a topology, and concurrent jobs frequently sweep the
// same grid: every scenario that doesn't override a topology knob
// shares one sweep.FleetKey. The cache plugs into the engine as its
// Config.FleetSource and keeps one fleet.Shared per (FleetKey, seed),
// so all of them pay for one build; fleet.Shared states the sharing
// contract (TestFleetSourceCachedClones in internal/sweep pins the
// sweep bytes under it). Memory is bounded by an LRU byte budget. An
// entry keeps only its build's topology, but is charged what a fleet
// of the older, wider records holding a 20-byte as-built disk slab
// with one trial's replacement room would cost (charge), nearly four
// times the topology, so a given budget holds as many keys, and fills
// after as many builds, as a cache of such fleets would, while the
// memory it holds is about a quarter of the budget. Eviction drops the
// cache's reference only: outstanding fleets keep the topology they
// share alive, and a re-request rebuilds.

import (
	"container/list"
	"sync"

	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sweep"
)

// DefaultCacheBytes is the fleet cache budget when Config.CacheBytes
// is zero: 512 MiB, roughly 38 quarter-scale builds (each charged about
// 13 MiB), of which the cache holds the topologies, about 3.5 MiB each.
const DefaultCacheBytes = 512 << 20

// fleetCacheKey identifies one build: the topology key plus
// the sweep seed the population was synthesized from.
type fleetCacheKey struct {
	key  sweep.FleetKey
	seed int64
}

// cacheEntry is one cached build. bytes is the build's charge against
// the budget, set once its build returns; it is zero while none has.
type cacheEntry struct {
	shared fleet.Shared
	bytes  int64
	elem   *list.Element
}

// CacheStats counts cache traffic. Builds is the number the
// concurrency tests probe: two jobs sweeping the same topology must
// leave it at one.
type CacheStats struct {
	// Builds counts requests that built the fleet an entry keeps.
	Builds int
	// Hits counts requests served a Clone of a cached build, waiting
	// on it while it ran. A request whose build panicked counts as
	// neither; the waiter that builds in its place counts as a Build.
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

// NewFleetCache returns a cache bounded to budget bytes of builds, each
// charged as charge says. budget <= 0 means unbounded.
func NewFleetCache(budget int64) *FleetCache {
	return &FleetCache{
		budget:  budget,
		entries: map[fleetCacheKey]*cacheEntry{},
		lru:     list.New(),
	}
}

// Get returns a fleet for (key, seed) whose delta the caller
// exclusively owns from the key's entry, which keeps one build per
// cached lifetime however many requesters race. Its signature is
// exactly Config.FleetSource, so a server wires it with
// cfg.FleetSource = cache.Get.
func (c *FleetCache) Get(key sweep.FleetKey, seed int64, build func() *fleet.Fleet) *fleet.Fleet {
	k := fleetCacheKey{key, seed}
	c.mu.Lock()
	e := c.entries[k]
	if e == nil {
		e = &cacheEntry{elem: c.lru.PushFront(k)}
		c.entries[k] = e
	}
	c.lru.MoveToFront(e.elem)
	c.mu.Unlock()

	f, built := e.shared.Fleet(build)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !built {
		c.stats.Hits++
		return f
	}
	c.stats.Builds++
	e.bytes = charge(f)
	c.used += e.bytes
	c.evictLocked()
	return f
}

// charge is what a build costs against the budget, priced at the
// records fleets held when they stored their disks: 104 B per system,
// 20 B per shelf, 32 B per RAID group and 4 B per member slot of the
// topology slabs' capacities, plus an as-built disk slab of 20-byte
// records with room for one trial's replacements — the systems'
// expected churn plus a sixteenth of the disks. The prices are fixed,
// so slimmer records shrink what a build holds but not what it is
// charged, and the budget admits the same number of builds
// (TestFleetCacheChargePinned).
func charge(f *fleet.Fleet) int64 {
	const system, shelf, group, member, disk = 104, 20, 32, 4, 20
	disks := f.NumDisks()
	churn := 0.0
	for i := range f.Systems {
		s := &f.Systems[i]
		n := 0
		for _, sh := range f.Shelves[s.Shelves.Lo:s.Shelves.Hi] {
			n += sh.Disks.Len()
		}
		churn += float64(n) * s.ChurnPerDiskYear * s.ObservedYears()
	}
	slab := disks + int(churn) + disks/16
	topology := cap(f.Systems)*system + cap(f.Shelves)*shelf + cap(f.Groups)*group + cap(f.Members)*member
	return int64(topology + slab*disk)
}

// Stats snapshots the traffic counters.
func (c *FleetCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// evictLocked drops least-recently-used built entries until the budget
// is met. An entry whose build has not returned holds nothing yet
// (bytes is zero) and is skipped, so its charge lands on a listed
// entry. A single over-budget build is allowed to evict itself: its
// requester keeps the built fleet, and the next request rebuilds.
// Outstanding fleets are unaffected.
func (c *FleetCache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && c.used > c.budget; {
		prev := el.Prev()
		k := el.Value.(fleetCacheKey)
		if e := c.entries[k]; e.bytes > 0 {
			delete(c.entries, k)
			c.lru.Remove(el)
			c.used -= e.bytes
			c.stats.Evictions++
		}
		el = prev
	}
}
