package fleet

import (
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// RNG stream constants for topology construction: each class and each
// system within a class draws from a decoupled stream, so adding a
// class or growing a class's population never perturbs the structure of
// existing systems.
//
// The "build" domain is the namespace under the construction root
// NewRNG(buildSeed); it is distinct from the simulation's "sim" domain
// (seeded with seed+1), so identities need only be unique within this
// domain — detlint's streamid analyzer enforces it.
//
//detlint:streamdomain build
const (
	streamClass  uint64 = 1 // + class ordinal
	streamSystem uint64 = 2 // + system ordinal within the class
)

// Build constructs a fleet from the given class profiles at the given
// population scale (1.0 = the paper's full 39,000-system population).
// The result is fully determined by (profiles, scale, seed): it is the
// same bytes whatever runtime.GOMAXPROCS is.
//
// Scale only multiplies the number of systems per class; per-system
// structure (shelves, disks, RAID layout) is unchanged, so per-disk-year
// statistics are scale-invariant up to sampling noise.
//
// Systems are numbered in (class, system) order, each drawing from an
// RNG stream split off the seed by (class, system ordinal), so any run
// of consecutive systems can be built without the others. Build cuts
// that order into chunks of at most chunkSystems systems of one class
// and makes two passes over them, each on GOMAXPROCS goroutines that
// claim chunks in order. The census draws every system's shape
// (drawShape) and counts each chunk's shelves and disks exactly, and
// bounds its RAID groups by each system's disks/RAIDGroupSize; prefix
// sums of those counts give every chunk its first IDs. The fill splits
// the same streams again — Split is a pure function of the parent key
// and stream, so it replays the same draws — and writes every system
// and shelf at its index of slabs allocated once at those sizes, and
// every RAID group and member into its chunk's window of the
// bound-sized group and member slabs. A short serial pass (compact)
// then closes the bound's slack between the windows. Every processor
// count, one included, takes this one path. No disk is stored: the
// topology determines every as-built disk's record (Fleet.Disk).
//
// A panic in any chunk is raised in the caller once every build
// goroutine has returned, with the value of the first panicking system
// in build order, as a serial build would raise it.
func Build(profiles []ClassProfile, scale float64, seed int64) *Fleet {
	return build(profiles, scale, seed, chunkSystems)
}

// chunkSystems is the most systems one build chunk holds: enough that
// claiming a chunk costs little beside its systems, few enough that a
// tenth-scale fleet's ~30 chunks keep every core busy to the end (at
// 256 systems a tenth-scale build ran about a fifth slower on two
// cores; at 0.5 scale 32 to 512 ran alike).
const chunkSystems = 128

// build is Build with chunks of at most size systems. The chunk size
// changes no output byte (TestBuildIndependentOfProcs).
func build(profiles []ClassProfile, scale float64, seed int64, size int) *Fleet {
	if scale <= 0 {
		panic("fleet: scale must be positive")
	}
	p := newPool(profiles, scale, seed, size)
	p.run((*builder).census)

	var systems, shelves, disks, groups, members int
	for i := range p.chunks {
		c := &p.chunks[i]
		c.system, c.shelf, c.disk, c.group, c.member = systems, shelves, disks, groups, members
		systems += c.hi - c.lo
		shelves += c.shelves
		disks += c.disks
		groups += c.groups
		members += c.members
	}
	if max(disks, shelves, groups, members) > math.MaxInt32 {
		panic("fleet: population exceeds the int32 component IDs of its records")
	}

	f := &Fleet{
		Systems: make([]System, systems),
		Shelves: make([]Shelf, shelves),
		Groups:  make([]RAIDGroup, 0, groups),
		Members: make([]int32, 0, members),
		Seed:    seed,
	}
	for i := range p.builders {
		p.builders[i].f = f
	}
	p.run((*builder).fill)
	compact(f, p.chunks)
	return f
}

// BuildDefault builds the default four-class fleet at the given scale.
func BuildDefault(scale float64, seed int64) *Fleet {
	return Build(DefaultProfiles(), scale, seed)
}

// chunk is one build task: the systems lo..hi-1 of one class. The
// census fills in its counts, build its first IDs, and the fill its
// groups and members laid out.
type chunk struct {
	p       *ClassProfile
	weights []float64 // the class's config weights
	key     stats.Key // the class's stream, which every system's is split off
	lo, hi  int       // system ordinals within the class

	shelves, disks  int // exact, from the census
	groups, members int // the census's upper bound; after the fill, the count laid out

	// First IDs. group and member are the chunk's window in the
	// bound-sized group and member slabs until compact moves it.
	system, shelf, disk, group, member int

	panicked any // the value the chunk panicked with; nil if it did not
}

// stream returns the RNG stream of the class's system with ordinal i.
//
//detlint:hotpath
func (c *chunk) stream(i int) stats.RNG {
	return c.key.Split(streamSystem | uint64(i)<<8).RNG()
}

// planChunks cuts the build order — classes in profile order, each
// class's systems in ordinal order — into chunks of at most size
// systems of one class. It also returns the most shelves a system's
// draw can give.
func planChunks(profiles []ClassProfile, scale float64, seed int64, size int) ([]chunk, int) {
	nChunks, nConfigs, maxShelves := 0, 0, 1
	for i := range profiles {
		p := &profiles[i]
		if len(p.Configs) == 0 {
			panic("fleet: profile has no shelf configs")
		}
		nChunks += (classSystems(p, scale) + size - 1) / size
		nConfigs += len(p.Configs)
		// drawCount never exceeds floor(3*mean/2)+1.
		maxShelves = max(maxShelves, int(p.ShelvesPerSystem*3/2)+1)
	}
	chunks := make([]chunk, 0, nChunks)
	// Every class's config weights share one slab, so pickConfig's
	// weights cost one allocation a build.
	weights := make([]float64, 0, nConfigs)
	root := stats.NewKey(seed)
	for i := range profiles {
		p := &profiles[i]
		lo := len(weights)
		for _, c := range p.Configs {
			weights = append(weights, c.Weight)
		}
		w := weights[lo:len(weights):len(weights)]
		key := root.Split(streamClass | uint64(p.Class)<<8)
		n := classSystems(p, scale)
		for s := 0; s < n; s += size {
			chunks = append(chunks, chunk{p: p, weights: w, key: key, lo: s, hi: min(s+size, n)})
		}
	}
	return chunks, maxShelves
}

// classSystems returns the number of systems the class has at scale:
// at least one.
func classSystems(p *ClassProfile, scale float64) int {
	return max(1, int(math.Round(float64(p.NumSystems)*scale)))
}

// pool runs a build's passes over its chunks, each on one goroutine per
// builder (the caller's among them). Workers claim chunks in build
// order through next, and stop claiming once a chunk has panicked, so
// every chunk before a panicking one has run to its end.
type pool struct {
	chunks   []chunk
	builders []builder // one per worker, reused across chunks and passes
	next     atomic.Int64
	failed   atomic.Bool
	wg       sync.WaitGroup
}

// newPool plans the build's chunks and gives it one builder per
// processor, never more than there are chunks. The builders' shelf
// scratch is presized from two shared slabs, so no worker regrows it.
func newPool(profiles []ClassProfile, scale float64, seed int64, size int) *pool {
	chunks, maxShelves := planChunks(profiles, scale, seed, size)
	n := max(1, min(runtime.GOMAXPROCS(0), len(chunks)))
	p := &pool{chunks: chunks, builders: make([]builder, n)}
	stride := maxShelves + 16 // 128 bytes apart, so no two workers share a cache line
	shelfDisks, free := make([]int, n*stride), make([]Span, n*stride)
	for i := range p.builders {
		lo, hi := i*stride, i*stride+maxShelves
		p.builders[i].shelfDisks = shelfDisks[lo:lo:hi]
		p.builders[i].free = free[lo:lo:hi]
	}
	return p
}

// run calls pass on every chunk and returns once every worker has. If
// any chunk panicked, run then panics with the first such chunk's value.
func (p *pool) run(pass func(*builder, *chunk)) {
	p.next.Store(0)
	p.wg.Add(len(p.builders) - 1)
	for i := 1; i < len(p.builders); i++ {
		go func(b *builder) {
			defer p.wg.Done()
			p.work(b, pass)
		}(&p.builders[i])
	}
	p.work(&p.builders[0], pass)
	p.wg.Wait()
	for i := range p.chunks {
		if v := p.chunks[i].panicked; v != nil {
			panic(v)
		}
	}
}

// work claims chunks in order and runs pass on each with builder b.
func (p *pool) work(b *builder, pass func(*builder, *chunk)) {
	for !p.failed.Load() {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.chunks) {
			return
		}
		p.runChunk(b, &p.chunks[i], pass)
	}
}

// runChunk runs pass on c, keeping a panic in c for run to raise. A
// runtime error keeps the stack of the goroutine that raised it, since
// run's panic traces only the caller's.
func (p *pool) runChunk(b *builder, c *chunk, pass func(*builder, *chunk)) {
	defer func() {
		if v := recover(); v != nil {
			if err, ok := v.(runtime.Error); ok {
				v = chunkError{err, debug.Stack()}
			}
			c.panicked = v
			p.failed.Store(true)
		}
	}()
	pass(b, c)
}

// chunkError is a runtime error a build chunk raised, with the stack
// it was raised on.
type chunkError struct {
	err   runtime.Error
	stack []byte
}

// Error returns the runtime error's message and the stack it was
// raised on.
func (e chunkError) Error() string {
	return e.err.Error() + "\n\nraised in a build chunk:\n" + string(e.stack)
}

// RuntimeError marks chunkError as the runtime.Error it carries.
func (e chunkError) RuntimeError() {}

// census draws the shape of every system of c and counts its shelves
// and disks, and bounds its RAID groups and their members: a group
// takes RAIDGroupSize unassigned disks, so a system lays out at most
// disks/RAIDGroupSize of them.
//
//detlint:hotpath
func (b *builder) census(c *chunk) {
	// The counts are kept in locals and stored once: adjacent chunks run
	// on different cores, and per-system stores would share their lines.
	var shelves, disks, groups int
	size := c.p.RAIDGroupSize
	for i := c.lo; i < c.hi; i++ {
		r := c.stream(i)
		_, n := b.drawShape(c.p, c.weights, &r)
		shelves += len(b.shelfDisks)
		disks += n
		if size > 0 {
			groups += n / size
		}
	}
	c.shelves, c.disks, c.groups, c.members = shelves, disks, groups, groups*size
}

// fill draws every system of c again and writes each system and its
// shelves at their indexes of the fleet's slabs, numbering the
// shelves' disks, then lays out its RAID groups into the chunk's
// windows of the group and member slabs. Components are numbered in
// write order, so each of a system's lists is a span.
//
//detlint:hotpath
func (b *builder) fill(c *chunk) {
	f := b.f
	// Each window starts at the chunk's offset and ends at its bound, so
	// the layout appends at the group's bound-slab index and a layout
	// that outgrew the bound would find the window full.
	b.groups = f.Groups[: c.group : c.group+c.groups]
	b.members = f.Members[: c.member : c.member+c.members]
	sysID, shelfID, diskID := c.system, c.shelf, c.disk
	for i := c.lo; i < c.hi; i++ {
		r := c.stream(i)
		sys, _ := b.drawShape(c.p, c.weights, &r)
		sys.ID = sysID
		sys.Shelves = Span{int32(shelfID), int32(shelfID + len(b.shelfDisks))}
		for si, n := range b.shelfDisks {
			f.Shelves[shelfID] = Shelf{
				ID: int32(shelfID), System: int32(sysID), Index: int32(si),
				Disks: Span{int32(diskID), int32(diskID + n)},
			}
			shelfID++
			diskID += n
		}
		firstGroup := len(b.groups)
		b.layoutRAIDGroups(sysID, sys.Shelves, c.p, &r)
		sys.RAIDGroups = Span{int32(firstGroup), int32(len(b.groups))}
		f.Systems[sysID] = sys
		sysID++
	}
	c.groups, c.members = len(b.groups)-c.group, len(b.members)-c.member
}

// compact closes the slack the census's bound left after each chunk's
// groups and members, in chunk order: a chunk's window moves down onto
// its own and earlier chunks' slack, so no move overwrites a window
// still to move. A moved chunk's group IDs, member spans and its
// systems' group spans drop by the distance moved. The slabs' tails
// are zeroed, so their bytes past the groups and members laid out are
// the same for any chunking.
func compact(f *Fleet, chunks []chunk) {
	groups, members := f.Groups[:cap(f.Groups)], f.Members[:cap(f.Members)]
	g, m := 0, 0
	for i := range chunks {
		c := &chunks[i]
		if dg, dm := int32(c.group-g), int32(c.member-m); dg != 0 || dm != 0 {
			moved := groups[g : g+c.groups]
			copy(moved, groups[c.group:c.group+c.groups])
			copy(members[m:m+c.members], members[c.member:c.member+c.members])
			for j := range moved {
				moved[j].ID -= dg
				moved[j].Members.Lo -= dm
				moved[j].Members.Hi -= dm
			}
			for j := range f.Systems[c.system : c.system+c.hi-c.lo] {
				s := &f.Systems[c.system+j]
				s.RAIDGroups.Lo -= dg
				s.RAIDGroups.Hi -= dg
			}
		}
		g += c.groups
		m += c.members
	}
	clear(groups[g:])
	clear(members[m:])
	f.Groups, f.Members = groups[:g], members[:m]
}

// drawShape makes the draws that precede a system's RAID layout, in
// their historical order: disk/shelf config, install time, path
// config, shelf count and each shelf's disk count. It returns the
// system record without its ID and lists, and its disk count, and
// leaves the per-shelf disk counts in b.shelfDisks. Build's census and
// its fill both draw through it, so the fill writes exactly the shapes
// the census sized.
//
//detlint:hotpath
func (b *builder) drawShape(p *ClassProfile, weights []float64, r *stats.RNG) (System, int) {
	cfg := p.Configs[r.Categorical(weights)]

	span := simtime.StudyYears()
	lo := p.InstallWindow.Start * span
	hi := p.InstallWindow.End * span
	install := simtime.YearsToSeconds(lo + (hi-lo)*r.Float64())
	if install >= simtime.StudyDuration {
		install = simtime.StudyDuration - simtime.SecondsPerDay
	}
	if int64(int32(install)) != install {
		panic("fleet: install time " + strconv.FormatInt(install, 10) + " s outside the disk record's int32 seconds")
	}

	paths := SinglePath
	if r.Bernoulli(p.DualPathFraction) {
		paths = DualPath
	}

	total := 0
	b.shelfDisks = b.shelfDisks[:0]
	for si := drawCount(p.ShelvesPerSystem, r); si > 0; si-- {
		// Heterogeneous shelf-size mix: a SparseShelfFraction share of
		// shelves is built around half the class mean. The Bernoulli is
		// only drawn when the feature is on, so default profiles consume
		// exactly the historical draw sequence.
		meanDisks := p.DisksPerShelf
		if p.SparseShelfFraction > 0 && r.Bernoulli(p.SparseShelfFraction) {
			meanDisks = meanDisks / 2
		}
		n := min(drawCount(meanDisks, r), MaxDisksPerShelf)
		b.shelfDisks = append(b.shelfDisks, n)
		total += n
	}
	return System{
		Class:            p.Class,
		ShelfModel:       cfg.Shelf,
		DiskModel:        cfg.Disk,
		Paths:            paths,
		Install:          install,
		ChurnPerDiskYear: p.ChurnPerDiskYear,
	}, total
}

// drawCount draws an integer with the given mean, spread uniformly over
// [ceil(mean/2), floor(3*mean/2)] with a Bernoulli correction so the
// expectation tracks fractional means. Structures are never built empty:
// for mean <= 1 the count is the floor value 1, deterministically, and
// no randomness is consumed. (Historically this branch burned a
// Bernoulli draw whose outcome could not matter; removing it shifts no
// default-profile stream, because every default mean exceeds 1 — see
// TestDrawCountSmallMean — so no seed re-derivation was needed.)
//
//detlint:hotpath
func drawCount(mean float64, r *stats.RNG) int {
	if mean <= 1 {
		return 1
	}
	lo := int(math.Ceil(mean / 2))
	hi := int(math.Floor(mean * 3 / 2))
	if hi <= lo {
		// Narrow range: Bernoulli-round to keep the expectation.
		base := int(math.Floor(mean))
		if r.Bernoulli(mean - float64(base)) {
			base++
		}
		if base < 1 {
			base = 1
		}
		return base
	}
	n := lo + r.Intn(hi-lo+1)
	// Bernoulli correction so E[n] tracks the fractional mean.
	mid := float64(lo+hi) / 2
	if frac := mean - mid; frac > 0 && r.Bernoulli(frac) {
		n++
	} else if frac < 0 && r.Bernoulli(-frac) && n > 1 {
		n--
	}
	if n < 1 {
		n = 1
	}
	return n
}
