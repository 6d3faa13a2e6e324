package fleet

import (
	"math"

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
// The result is fully determined by (profiles, scale, seed).
//
// Scale only multiplies the number of systems per class; per-system
// structure (shelves, disks, RAID layout) is unchanged, so per-disk-year
// statistics are scale-invariant up to sampling noise.
//
// Systems are built in (class, system) order, each drawing from an RNG
// stream split off the seed by (class, system ordinal). Build makes two
// passes over those streams. The census draws every system's shape
// (drawShape) and counts the fleet's systems, shelves and disks
// exactly, and bounds its RAID groups by each system's
// disks/RAIDGroupSize. The fill splits the same streams again — Split
// is a pure function of the parent key and stream, so it replays the
// same draws — and writes every system, shelf and RAID group at its
// index of slabs allocated once at those sizes. No disk is stored:
// the topology determines every as-built disk's record (Fleet.Disk).
func Build(profiles []ClassProfile, scale float64, seed int64) *Fleet {
	if scale <= 0 {
		panic("fleet: scale must be positive")
	}
	var b builder
	var systems, shelves, disks, groups, members int
	forEachSystem(profiles, scale, seed, func(p *ClassProfile, weights []float64, r *stats.RNG) {
		_, n := b.drawShape(p, weights, r)
		systems++
		shelves += len(b.shelfDisks)
		disks += n
		if p.RAIDGroupSize > 0 {
			g := n / p.RAIDGroupSize // every group takes RAIDGroupSize unassigned disks
			groups += g
			members += g * p.RAIDGroupSize
		}
	})
	if max(disks, shelves, groups, members) > math.MaxInt32 {
		panic("fleet: population exceeds the int32 component IDs of its records")
	}

	b.f = &Fleet{
		Systems: make([]System, systems),
		Shelves: make([]Shelf, shelves),
		Groups:  make([]RAIDGroup, 0, groups),
		Members: make([]int32, 0, members),
		Seed:    seed,
	}
	forEachSystem(profiles, scale, seed, b.buildSystem)
	return b.f
}

// BuildDefault builds the default four-class fleet at the given scale.
func BuildDefault(scale float64, seed int64) *Fleet {
	return Build(DefaultProfiles(), scale, seed)
}

// forEachSystem calls fn with every system's profile, its class's
// config weights and its RNG stream, in build order.
func forEachSystem(profiles []ClassProfile, scale float64, seed int64, fn func(p *ClassProfile, weights []float64, r *stats.RNG)) {
	root := stats.NewRNG(seed)
	// fn is called through a func value, so the stream it is handed
	// escapes: one variable serves every system, one allocation a pass.
	var sysRNG stats.RNG
	for pi := range profiles {
		p := &profiles[pi]
		if len(p.Configs) == 0 {
			panic("fleet: profile has no shelf configs")
		}
		classRNG := root.Split(streamClass | uint64(p.Class)<<8)
		// Config weights are hoisted out of the per-system loop so
		// pickConfig allocates once per class, not once per system.
		weights := make([]float64, len(p.Configs))
		for i, c := range p.Configs {
			weights[i] = c.Weight
		}
		n := max(1, int(math.Round(float64(p.NumSystems)*scale)))
		for i := 0; i < n; i++ {
			sysRNG = classRNG.Split(streamSystem | uint64(i)<<8)
			fn(p, weights, &sysRNG)
		}
	}
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
		panic("fleet: install time outside the disk record's int32 seconds")
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

// buildSystem draws one system's shape and writes the system and its
// shelves at their indexes of the fleet's slabs, numbering the
// shelves' disks, then lays out its RAID groups. Components are
// numbered in write order, so each of the system's lists is a span.
//
//detlint:hotpath
func (b *builder) buildSystem(p *ClassProfile, weights []float64, r *stats.RNG) {
	f := b.f
	sys, _ := b.drawShape(p, weights, r)
	sysID := b.systems
	b.systems++
	sys.ID = sysID
	sys.Shelves = Span{int32(b.shelves), int32(b.shelves + len(b.shelfDisks))}

	for si, n := range b.shelfDisks {
		shelfID := b.shelves
		b.shelves++
		lo := b.disks
		b.disks += n
		f.Shelves[shelfID] = Shelf{
			ID: int32(shelfID), System: int32(sysID), Index: int32(si),
			Disks: Span{int32(lo), int32(b.disks)},
		}
	}

	firstGroup := len(f.Groups)
	b.layoutRAIDGroups(sysID, sys.Shelves, p, r)
	sys.RAIDGroups = Span{int32(firstGroup), int32(len(f.Groups))}
	f.Systems[sysID] = sys
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
