package fleet

import (
	"math"
	"runtime"
	"sync"

	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// RNG stream constants for topology construction: each class and each
// system within a class draws from a decoupled stream, so adding a
// class or growing a class's population never perturbs the structure of
// existing systems — and any (class, system) job can be built by any
// worker with no shared draw state.
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

// EffectiveWorkers resolves a worker-count setting to a concrete pool
// size: values <= 0 select one worker per available CPU
// (runtime.GOMAXPROCS(0)). This is the single fallback shared by every
// parallel engine in the repository — fleet.BuildWorkers, sim.RunWorkers
// and the Monte-Carlo trial pool in internal/sweep — all of which
// produce identical results for any worker count, so the setting only
// ever affects wall-clock time.
func EffectiveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Build constructs a fleet from the given class profiles at the given
// population scale (1.0 = the paper's full 39,000-system population),
// using one build worker per available CPU. The result is fully
// determined by (profiles, scale, seed) — see BuildWorkers.
//
// Scale only multiplies the number of systems per class; per-system
// structure (shelves, disks, RAID layout) is unchanged, so per-disk-year
// statistics are scale-invariant up to sampling noise.
func Build(profiles []ClassProfile, scale float64, seed int64) *Fleet {
	return BuildWorkers(profiles, scale, seed, 0)
}

// BuildWorkers constructs the fleet with the given number of worker
// goroutines; workers <= 0 uses runtime.GOMAXPROCS(0).
//
// The (class, system) jobs are split into contiguous shards. Each worker
// builds its systems into a private arena of value slabs wired by local
// indices — each system's randomness comes from an RNG stream split off
// the seed by (class, system ordinal), so shard boundaries never perturb
// the draws. Arenas are then renumbered with global base offsets and
// spliced into the fleet in shard order, which reassigns exactly the IDs
// a serial build would have: every worker count produces a bit-identical
// Fleet.
func BuildWorkers(profiles []ClassProfile, scale float64, seed int64, workers int) *Fleet {
	if scale <= 0 {
		panic("fleet: scale must be positive")
	}
	workers = EffectiveWorkers(workers)

	// Per-class populations, class-level RNG streams, and config weights
	// (hoisted out of the per-system loop so pickConfig allocates once
	// per class, not once per system).
	root := stats.NewRNG(seed)
	counts := make([]int, len(profiles))
	classRNGs := make([]stats.RNG, len(profiles))
	weights := make([][]float64, len(profiles))
	jobs := 0
	for pi := range profiles {
		p := &profiles[pi]
		n := int(math.Round(float64(p.NumSystems) * scale))
		if n < 1 {
			n = 1
		}
		counts[pi] = n
		jobs += n
		classRNGs[pi] = root.Split(streamClass | uint64(p.Class)<<8)
		if len(p.Configs) == 0 {
			panic("fleet: profile has no shelf configs")
		}
		ws := make([]float64, len(p.Configs))
		for i, c := range p.Configs {
			ws[i] = c.Weight
		}
		weights[pi] = ws
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}

	// Phase A: build contiguous job shards into private arenas. The
	// class RNGs are shared read-only (Split is a pure function), so
	// workers need no synchronization at all.
	bws := make([]*buildWorker, workers)
	var wg sync.WaitGroup
	for wi := range bws {
		w := &buildWorker{}
		bws[wi] = w
		lo := wi * jobs / workers
		hi := (wi + 1) * jobs / workers
		build := func() {
			w.arena.reserve(estimateShard(profiles, counts, lo, hi))
			pi, base := 0, 0
			for k := lo; k < hi; k++ {
				for k >= base+counts[pi] {
					base += counts[pi]
					pi++
				}
				i := k - base
				sysRNG := classRNGs[pi].Split(streamSystem | uint64(i)<<8)
				w.buildSystem(&profiles[pi], weights[pi], &sysRNG)
			}
		}
		if workers == 1 {
			build()
		} else {
			wg.Add(1)
			go func() {
				defer wg.Done()
				build()
			}()
		}
	}
	wg.Wait()

	// Assign global base offsets by prefix sums in shard order. Shards
	// are contiguous in (class, system) job order, so this renumbering
	// reproduces exactly the IDs a serial build assigns.
	f := &Fleet{Seed: seed}
	var nSys, nShelf, nDisk, nGroup int
	for _, w := range bws {
		w.sysBase, w.shelfBase, w.diskBase, w.groupBase = nSys, nShelf, nDisk, nGroup
		nSys += len(w.arena.systems)
		nShelf += len(w.arena.shelves)
		nDisk += len(w.arena.disks)
		nGroup += len(w.arena.groups)
	}
	f.Systems = make([]*System, nSys)
	f.Shelves = make([]*Shelf, nShelf)
	f.Disks = make([]*Disk, nDisk)
	f.Groups = make([]*RAIDGroup, nGroup)

	// Phase B: renumber and splice each arena into its disjoint slice
	// ranges, again in parallel.
	for _, w := range bws {
		if workers == 1 {
			w.arena.splice(f, w.sysBase, w.shelfBase, w.diskBase, w.groupBase)
			continue
		}
		wg.Add(1)
		go func(w *buildWorker) {
			defer wg.Done()
			w.arena.splice(f, w.sysBase, w.shelfBase, w.diskBase, w.groupBase)
		}(w)
	}
	wg.Wait()
	return f
}

// BuildDefault builds the default four-class fleet at the given scale,
// one build worker per available CPU.
func BuildDefault(scale float64, seed int64) *Fleet {
	return Build(DefaultProfiles(), scale, seed)
}

// BuildDefaultWorkers builds the default four-class fleet with the given
// worker count (any value yields a bit-identical fleet).
func BuildDefaultWorkers(scale float64, seed int64, workers int) *Fleet {
	return BuildWorkers(DefaultProfiles(), scale, seed, workers)
}

// estimateShard predicts the component counts of job shard [lo, hi) from
// the profile means, with headroom, so arena slabs are sized once.
func estimateShard(profiles []ClassProfile, counts []int, lo, hi int) (systems, shelves, disks, groups int) {
	base := 0
	var fShelves, fDisks, fGroups float64
	for pi := range profiles {
		p := &profiles[pi]
		overlap := min(hi, base+counts[pi]) - max(lo, base)
		base += counts[pi]
		if overlap <= 0 {
			continue
		}
		systems += overlap
		sh := float64(overlap) * p.ShelvesPerSystem
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
// worker's arena using only arena-local indices. The draw sequence is
// identical to the historical fleet-mutating builder, so topologies are
// unchanged stream-for-stream.
//
//detlint:hotpath
func (w *buildWorker) buildSystem(p *ClassProfile, weights []float64, r *stats.RNG) {
	a := &w.arena
	sysLocal := len(a.systems)
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
		ID:               sysLocal,
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
		shelfLocal := len(a.shelves)
		a.shelves = append(a.shelves, Shelf{
			ID: shelfLocal, System: sysLocal, Index: si,
		})
		a.shelfIDs = append(a.shelfIDs, shelfLocal)
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
			diskLocal := len(a.disks)
			a.disks = append(a.disks, Disk{
				ID:      diskLocal,
				System:  sysLocal,
				Shelf:   shelfLocal,
				Slot:    slot,
				RAIDGrp: -1,
				Install: install,
				Remove:  simtime.StudyDuration,
			})
			a.diskIDs = append(a.diskIDs, diskLocal)
		}
		a.shelfDisk[shelfLocal].n = len(a.diskIDs) - a.shelfDisk[shelfLocal].off
	}
	a.sysShelf[sysLocal].n = len(a.shelfIDs) - a.sysShelf[sysLocal].off

	w.layoutRAIDGroups(sysLocal, sysDiskOff, p, r)
	a.sysGroup[sysLocal].n = len(a.groupIDs) - a.sysGroup[sysLocal].off
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
