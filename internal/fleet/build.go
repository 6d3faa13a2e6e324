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
// Systems are built in (class, system) order into one arena of value
// slabs wired by index, each system drawing from an RNG stream split
// off the seed by (class, system ordinal). The arena is then copied
// once into slabs of exactly the fleet's size.
func Build(profiles []ClassProfile, scale float64, seed int64) *Fleet {
	if scale <= 0 {
		panic("fleet: scale must be positive")
	}
	counts := make([]int, len(profiles))
	for pi := range profiles {
		p := &profiles[pi]
		if len(p.Configs) == 0 {
			panic("fleet: profile has no shelf configs")
		}
		counts[pi] = max(1, int(math.Round(float64(p.NumSystems)*scale)))
	}

	root := stats.NewRNG(seed)
	var b builder
	b.arena.reserve(estimate(profiles, counts))
	for pi := range profiles {
		p := &profiles[pi]
		classRNG := root.Split(streamClass | uint64(p.Class)<<8)
		// Config weights are hoisted out of the per-system loop so
		// pickConfig allocates once per class, not once per system.
		weights := make([]float64, len(p.Configs))
		for i, c := range p.Configs {
			weights[i] = c.Weight
		}
		for i := 0; i < counts[pi]; i++ {
			sysRNG := classRNG.Split(streamSystem | uint64(i)<<8)
			b.buildSystem(p, weights, &sysRNG)
		}
	}
	if len(b.arena.disks) > math.MaxInt32 {
		panic("fleet: population exceeds the disk record's int32 component IDs")
	}
	return b.arena.finish(seed)
}

// BuildDefault builds the default four-class fleet at the given scale.
func BuildDefault(scale float64, seed int64) *Fleet {
	return Build(DefaultProfiles(), scale, seed)
}

// estimate predicts the fleet's component counts from the profile
// means, with headroom, so the arena's slabs are sized once.
func estimate(profiles []ClassProfile, counts []int) (systems, shelves, disks, groups int) {
	var fShelves, fDisks, fGroups float64
	for pi := range profiles {
		p := &profiles[pi]
		systems += counts[pi]
		sh := float64(counts[pi]) * p.ShelvesPerSystem
		dk := sh * math.Min(p.DisksPerShelf, MaxDisksPerShelf)
		fShelves += sh
		fDisks += dk
		if p.RAIDGroupSize > 0 {
			fGroups += dk / float64(p.RAIDGroupSize)
		}
	}
	const margin = 1.2 // drawCount spreads counts up to 1.5x the mean
	return systems, int(fShelves*margin) + 8, int(fDisks*margin) + 8, int(fGroups*margin) + 8
}

// buildSystem appends one system — shelves, disks, RAID layout — to the
// arena. The draw sequence is identical to the historical
// fleet-mutating builder, so topologies are unchanged stream-for-stream.
//
//detlint:hotpath
func (b *builder) buildSystem(p *ClassProfile, weights []float64, r *stats.RNG) {
	a := &b.arena
	sysID := len(a.systems)
	cfg := p.Configs[r.Categorical(weights)]

	span := simtime.StudyYears()
	lo := p.InstallWindow.Start * span
	hi := p.InstallWindow.End * span
	install := simtime.YearsToSeconds(lo + (hi-lo)*r.Float64())
	if install >= simtime.StudyDuration {
		install = simtime.StudyDuration - simtime.SecondsPerDay
	}

	paths := SinglePath
	if r.Bernoulli(p.DualPathFraction) {
		paths = DualPath
	}

	a.systems = append(a.systems, System{
		ID:               sysID,
		Class:            p.Class,
		ShelfModel:       cfg.Shelf,
		DiskModel:        cfg.Disk,
		Paths:            paths,
		Install:          install,
		ChurnPerDiskYear: p.ChurnPerDiskYear,
	})
	a.sysShelf = append(a.sysShelf, onwardSpan(a.shelfIDs))
	a.sysGroup = append(a.sysGroup, onwardSpan(a.groupIDs))

	sysDiskOff := len(a.disks)
	numShelves := drawCount(p.ShelvesPerSystem, r)
	for si := 0; si < numShelves; si++ {
		shelfID := len(a.shelves)
		a.shelves = append(a.shelves, Shelf{
			ID: shelfID, System: sysID, Index: si,
		})
		a.shelfIDs = append(a.shelfIDs, shelfID)
		a.shelfDisk = append(a.shelfDisk, onwardSpan(a.diskIDs))

		// Heterogeneous shelf-size mix: a SparseShelfFraction share of
		// shelves is built around half the class mean. The Bernoulli is
		// only drawn when the feature is on, so default profiles consume
		// exactly the historical draw sequence.
		meanDisks := p.DisksPerShelf
		if p.SparseShelfFraction > 0 && r.Bernoulli(p.SparseShelfFraction) {
			meanDisks = meanDisks / 2
		}
		numDisks := drawCount(meanDisks, r)
		if numDisks > MaxDisksPerShelf {
			numDisks = MaxDisksPerShelf
		}
		for slot := 0; slot < numDisks; slot++ {
			diskID := len(a.disks)
			a.disks = append(a.disks, Disk{
				System:  int32(sysID),
				Shelf:   int32(shelfID),
				Slot:    uint8(slot),
				RAIDGrp: -1,
				Install: install,
				Remove:  simtime.StudyDuration,
			})
			a.diskIDs = append(a.diskIDs, diskID)
		}
		a.shelfDisk[shelfID].n = len(a.diskIDs) - a.shelfDisk[shelfID].off
	}
	a.sysShelf[sysID].n = len(a.shelfIDs) - a.sysShelf[sysID].off

	b.layoutRAIDGroups(sysID, sysDiskOff, p, r)
	a.sysGroup[sysID].n = len(a.groupIDs) - a.sysGroup[sysID].off
}

// onwardSpan starts a span at the slab's current end; the caller sets n
// once the component's sublist is complete.
//
//detlint:hotpath
func onwardSpan(slab []int) span {
	return span{off: len(slab)}
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
