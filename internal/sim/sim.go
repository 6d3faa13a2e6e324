// Package sim animates a fleet: it runs the calibrated generative
// failure model (internal/failmodel) over every system in a fleet for
// the 44-month study window and produces the time-ordered failure event
// stream the analyses consume, while maintaining the fleet's disk
// population (failure-driven replacements and proactive churn) so AFR
// denominators are exact.
//
// The engine is not a general discrete-event simulator: every process in
// the model is a Poisson (or marked-Poisson) process, so each system can
// be simulated independently by drawing process realizations directly.
// That keeps a full-scale (1.8M disk) run in seconds while remaining
// exactly equivalent to an event-queue implementation, because Poisson
// thinning by slot occupancy is distribution-preserving.
//
// A run is serial: systems are simulated in ID order, and each
// replacement disk is appended to the fleet's delta (fleet.Replace) the
// moment it is installed, so it carries its final ID from the start. The
// repository's one parallel engine is the Monte-Carlo trial pool in
// internal/sweep, which runs independent trials side by side.
//
// The per-system loop is effectively zero-allocation. Randomness comes
// from constant-size splittable stats.RNG values keyed by the typed
// stream constants below (no per-split state arrays, no label strings),
// and every transient slice — Poisson time draws, failure candidates,
// slot occupancy chains, burst victim indices — lives in scratch
// buffers that are recycled across systems. The only steady-state
// allocations are the simulation's actual outputs: the event buffer and
// any growth of the fleet's delta.
package sim

import (
	"cmp"
	"math"
	"slices"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/simtime"
	"storagesubsys/internal/stats"
)

// RNG stream constants. Every random process draws from a stream split
// off the run seed by a typed integer key, so per-component processes
// are decoupled: inserting a component (a new stream key) never
// perturbs the randomness of existing sibling streams. Keys carrying a
// component index are built with streamKey.
//
// The "sim" domain covers every split under the simulation root
// (NewRNG(simSeed) and its descendants); identities must be unique
// across the whole domain — detlint's streamid analyzer enforces it.
//
//detlint:streamdomain sim
const (
	streamSim    uint64 = iota + 1 // root of the whole simulation
	streamSys                      // + system ID: one stream per system
	streamShelf                    // + shelf ID: one stream per shelf
	streamEnv                      // shelf environment episodes
	streamSlot                     // + slot index: one stream per slot
	streamBase                     // per-slot baseline disk failures
	streamEnvHit                   // per-slot environment-hit marks
	streamChurn                    // per-slot proactive churn
	streamCause                    // per-slot disk failure cause mix
	streamPI                       // shelf-level interconnect episodes
	streamPerf                     // shelf performance episodes
	streamLoop                     // system loop-level interconnect episodes
	streamProto                    // system protocol episodes
	streamRepair                   // per-slot stochastic repair lags (RepairLagSigma > 0 only)
)

// streamKey combines a stream constant with a component index. The
// low byte carries the stream constant and the remaining 56 bits carry
// the index, so distinct (stream, id) pairs map to distinct keys.
func streamKey(stream uint64, id int) uint64 {
	return stream | uint64(id)<<8
}

// Result is a simulated failure history over a fleet.
type Result struct {
	// Fleet is the simulated fleet. The simulator writes its delta:
	// failed and churned disks are removed, and replacement disks are
	// appended, so the disks' summed residency is the exact AFR
	// denominator.
	Fleet *fleet.Fleet
	// Events holds every failure occurrence (including multipath-
	// recovered interconnect faults), sorted by occurrence time.
	Events []failmodel.Event
}

// Run simulates the fleet under the given parameters. The result is
// fully determined by (fleet, params, seed). The fleet's delta is
// written (disk removals and replacement installs); pass a freshly
// built, cloned or Reset fleet. Run is RunOpts with fresh scratch.
func Run(f *fleet.Fleet, params *failmodel.Params, seed int64) *Result {
	return RunOpts(f, params, seed, nil)
}

// Scratch owns a run's reusable state — the event buffer, the event
// sort's permutation and every per-system scratch buffer — so a caller
// running many simulations (the Monte-Carlo sweep engine) can recycle
// it across runs and keep steady-state allocation flat: a warm scratch
// plus a fleet.Reset fleet make a whole re-simulation allocate only a
// small constant plus any event-buffer growth.
//
// A Scratch must only be reused once the previous run's events are no
// longer needed: the next run recycles the same event buffer,
// clobbering the prior Result.Events. The zero value is ready to use.
type Scratch struct {
	w    worker
	perm []int32 // sortEvents' permutation, one index per event
}

// RunOpts is Run with caller-owned scratch (nil for a one-shot run).
// The result is bit-identical to a fresh run whatever scratch is
// passed.
func RunOpts(f *fleet.Fleet, params *failmodel.Params, seed int64, sc *Scratch) *Result {
	if sc == nil {
		sc = &Scratch{}
	}
	w := &sc.w
	w.f, w.params = f, params
	w.events = w.events[:0]

	root := stats.NewKey(seed).Split(streamSim)
	for i := range f.Systems {
		sys := &f.Systems[i]
		w.simulateSystem(sys, root.Split(streamKey(streamSys, sys.ID)))
	}
	sc.perm = sortEvents(w.events, sc.perm)
	// Drop the per-run references so a long-lived Scratch cannot pin a
	// fleet (a full-scale one holds ~1.7M disks) after the run.
	w.f, w.params = nil, nil
	return &Result{Fleet: f, Events: w.events}
}

// sortEvents orders a run's events by (Time, Disk), keeping generation
// order for the (astronomically rare) same-time same-disk ties: the
// generation index is the last key, so the unstable index sort yields
// the stable order by construction. perm is the run's recycled
// permutation, returned for the next run.
//
//detlint:hotpath
func sortEvents(events []failmodel.Event, perm []int32) []int32 {
	return failmodel.SortEvents(events, perm, eventOrder(events).compare)
}

// eventOrder compares events by index for sortEvents; its method value
// carries the events where a closure would capture them.
type eventOrder []failmodel.Event

func (ev eventOrder) compare(a, b int32) int {
	x, y := &ev[a], &ev[b]
	if c := cmp.Compare(x.Time, y.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Disk, y.Disk); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// Opts is empty. It survives only in RunWorkersOpts's signature, which
// the repository benchmark's replica compiles against; the simulator
// has no run options.
type Opts struct{}

// RunWorkersOpts is RunOpts with an ignored worker count and an empty
// Opts. It keeps the signature of the sharded engine the simulator
// replaced, for the repository benchmark's replica, its one reader.
func RunWorkersOpts(f *fleet.Fleet, params *failmodel.Params, seed int64, workers int, sc *Scratch, _ Opts) *Result {
	return RunOpts(f, params, seed, sc)
}

// worker simulates the fleet's systems one at a time. All transient
// per-system state lives in the scratch fields, which retain their
// capacity across systems so the steady-state simulation loop performs
// no allocation.
type worker struct {
	f      *fleet.Fleet
	params *failmodel.Params
	events []failmodel.Event

	// Scratch buffers recycled across systems.
	envTimes []simtime.Seconds // environment episode onsets (per shelf)
	times    []simtime.Seconds // Poisson process draws (per process)
	cands    []candidate       // slot failure/churn candidates (per slot)
	chains   []slotChain       // flat per-slot occupancy chains (per system)
	shelfOff []int             // chains[shelfOff[i]:shelfOff[i+1]] = shelf i's slots
	slotGrp  []int32           // each flat slot's RAID group (per system), for emit
	permBuf  []int             // partial Fisher–Yates scratch (per burst)
}

// occupancy is one disk's residency in a slot.
type occupancy struct {
	disk     int
	from, to simtime.Seconds
}

// slotChain is the sequence of disks that occupied one physical slot.
type slotChain []occupancy

// at returns the disk occupying the slot at time t, if any.
func (c slotChain) at(t simtime.Seconds) (int, bool) {
	for _, o := range c {
		if t >= o.from && t < o.to {
			return o.disk, true
		}
	}
	return 0, false
}

// candidate is a prospective slot event: a failure or churn drawn from
// one of the slot's processes, thinned later by slot occupancy.
type candidate struct {
	t    simtime.Seconds
	kind int8
}

// Candidate kinds.
const (
	candBase  int8 = iota // baseline disk failure
	candEnv               // environment-episode disk failure
	candChurn             // proactive churn
)

// chainBuf returns slot i's chain buffer with length zero and retained
// capacity, growing the flat chain arena on first use.
//
//detlint:hotpath
func (w *worker) chainBuf(i int) slotChain {
	for len(w.chains) <= i {
		w.chains = append(w.chains, nil)
	}
	return w.chains[i][:0]
}

// sysRates holds a system's rates, resolved once per system: every
// disk of a system, replacements included, is the system's model, and
// the system's class, shelf model and disk model fix every other rate.
type sysRates struct {
	base, hitProb  float64 // per-disk baseline failure rate and env-hit probability
	pi, perf, prot float64 // interconnect, performance and protocol events per disk-year
	// baseNone and churnNone are the first-arrival thresholds
	// (noArrivalBelow) of an as-built slot's baseline and churn
	// processes, which run over [sys.Install, StudyDuration).
	baseNone, churnNone float64
}

// simulateSystem realizes every failure process of one system; with
// the scratch buffers warm it allocates only output events. The
// system, shelf and slot streams are only ever split, so they stay
// keys; a generator is expanded only for a process that draws.
//
//detlint:hotpath
func (w *worker) simulateSystem(sys *fleet.System, k stats.Key) {
	end := simtime.StudyDuration
	if sys.Install >= end {
		return
	}
	p := w.params
	rt := sysRates{
		base:      p.DiskBaseRate(sys.DiskModel),
		hitProb:   p.EnvHitProb(sys.DiskModel),
		pi:        p.PIRate(sys.Class, sys.ShelfModel, sys.DiskModel),
		perf:      p.PerfRate(sys.Class, sys.DiskModel),
		prot:      p.ProtoRate(sys.Class, sys.DiskModel),
		churnNone: noArrivalBelow(sys.ChurnPerDiskYear, sys.Install),
	}
	rt.baseNone = noArrivalBelow(rt.base, sys.Install)

	// Per-slot occupancy chains for the whole system, flat in shelf
	// order, for victim lookup by the episode processes. A flat slot
	// index is its as-built disk's offset into the system's disks.
	w.shelfOff = w.shelfOff[:0]
	used := 0
	w.slotGrp = w.f.SystemGroups(w.slotGrp[:0], sys)

	for shelfID := sys.Shelves.Lo; shelfID < sys.Shelves.Hi; shelfID++ {
		shelf := &w.f.Shelves[shelfID]
		shelfKey := k.Split(streamKey(streamShelf, int(shelfID)))

		// Environment episodes shared by every disk in the shelf.
		envRNG := shelfKey.Split(streamEnv).RNG()
		w.envTimes = poissonTimes(w.envTimes[:0], p.EnvEpisodeRate, sys.Install, end, &envRNG)

		w.shelfOff = append(w.shelfOff, used)
		// The shelf's span holds its as-built slots only; the
		// replacements simulateSlot appends lie past every span.
		for idx := range shelf.Disks.Len() {
			d := fleet.Disk{
				Install: int32(sys.Install),
				Remove:  int32(end),
				Shelf:   shelfID,
				RAIDGrp: w.slotGrp[used],
				Slot:    uint8(idx),
			}
			buf := w.chainBuf(used) // grows w.chains before the index store below
			w.chains[used] = w.simulateSlot(sys, &rt, int(shelf.Disks.Lo)+idx, d, w.envTimes,
				shelfKey.Split(streamKey(streamSlot, idx)), buf)
			used++
		}

		w.simulateShelfEpisodes(sys, &rt, shelfID, w.shelfOff[len(w.shelfOff)-1], used, shelfKey)
	}
	w.shelfOff = append(w.shelfOff, used)

	loopRNG := k.Split(streamLoop).RNG()
	w.simulateLoopEpisodes(sys, &rt, used, &loopRNG)
	protoRNG := k.Split(streamProto).RNG()
	w.simulateProtocolEpisodes(sys, &rt, used, &protoRNG)
}

// simulateSlot walks one slot's lifetime: the initial disk, then any
// replacements triggered by disk failures or churn. Baseline failures
// and churn are Poisson processes over the whole window thinned by slot
// occupancy (valid because both are memoryless and replacements share
// the failed disk's model); environment hits are per-episode Bernoulli
// marks spread over the episode window, each hitting with probability
// rt.hitProb. id and d are the slot's as-built disk's ID and record.
// The returned chain reuses the caller-provided buffer's storage where
// capacity allows.
//
// Each child stream is expanded only when it draws: a Split is a pure
// function of (slot, stream index), so expanding late, or never,
// changes no draw. Most slots see no event at all.
//
//detlint:hotpath
func (w *worker) simulateSlot(sys *fleet.System, rt *sysRates, id int, d fleet.Disk, envTimes []simtime.Seconds, key stats.Key, chain slotChain) slotChain {
	end := simtime.StudyDuration
	p := w.params
	// An as-built disk is installed with its system, so the system's
	// first-arrival thresholds hold for it.
	install := sys.Install

	cands := w.cands[:0]
	w.times = arrivals(w.times[:0], rt.base, rt.baseNone, install, key.Split(streamBase))
	for _, t := range w.times {
		cands = append(cands, candidate{t, candBase})
	}
	if len(envTimes) > 0 {
		envRNG := key.Split(streamEnvHit).RNG()
		for _, et := range envTimes {
			if envRNG.Bernoulli(rt.hitProb) {
				// Gamma(0.5) offset with mean EnvSpread/2: most environment
				// casualties fall shortly after the episode onset with a
				// decaying tail, which keeps the pooled disk-gap distribution
				// Gamma-like (Finding 8) rather than bimodal.
				t := et + simtime.Seconds(envRNG.Gamma(0.5, float64(p.EnvSpread)))
				if t < end {
					cands = append(cands, candidate{t, candEnv})
				}
			}
		}
	}
	w.times = arrivals(w.times[:0], sys.ChurnPerDiskYear, rt.churnNone, install, key.Split(streamChurn))
	for _, t := range w.times {
		cands = append(cands, candidate{t, candChurn})
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		if a.t < b.t {
			return -1
		}
		if a.t > b.t {
			return 1
		}
		return 0
	})
	w.cands = cands

	// The slot's current occupant: its ID, and its record, which a
	// replacement copies but for its install time.
	chain = append(chain, occupancy{disk: id, from: install, to: end})
	curID, cur := id, d
	causeRNG := lazyRNG{key: key.Split(streamCause)}
	// Stochastic repair lags draw from their own slot stream, and only
	// when the distribution is enabled: the default deterministic lag
	// consumes no randomness, so calibrated streams are untouched.
	repairRNG := lazyRNG{key: key.Split(streamRepair)}
	for _, c := range cands {
		if c.t < simtime.Seconds(cur.Install) || c.t >= end {
			continue // slot empty (repair gap) or outside the window
		}
		switch c.kind {
		case candBase, candEnv:
			cause := failmodel.CauseDiskEnv
			if c.kind == candBase {
				cause = failmodel.CauseDiskMedia
				if causeRNG.get().Bernoulli(0.4) {
					cause = failmodel.CauseDiskMechanical
				}
			}
			w.emit(sys, cur.Shelf, cur.RAIDGrp, curID, c.t, cause, false)
			w.f.Remove(curID, c.t, true)
			chain[len(chain)-1].to = c.t
			lag := p.RepairLag
			if p.RepairLagSigma > 0 {
				lag = lognormalGap(p.RepairLag, p.RepairLagSigma, repairRNG.get())
			}
			reinstall := c.t + lag
			if reinstall >= end {
				return chain
			}
			curID = w.f.Replace(cur, reinstall)
			cur.Install = int32(reinstall)
			chain = append(chain, occupancy{disk: curID, from: reinstall, to: end})
		case candChurn:
			// Proactive churn: swap immediately, no failure event.
			w.f.Remove(curID, c.t, false)
			chain[len(chain)-1].to = c.t
			curID = w.f.Replace(cur, c.t)
			cur.Install = int32(c.t)
			chain = append(chain, occupancy{disk: curID, from: c.t, to: end})
		}
	}
	return chain
}

// simulateShelfEpisodes draws the interconnect and performance episode
// processes for one shelf, whose slots are the flat slots [lo, hi), and
// emits their event bursts.
//
//detlint:hotpath
func (w *worker) simulateShelfEpisodes(sys *fleet.System, rt *sysRates, shelfID int32, lo, hi int, shelf stats.Key) {
	nSlots := hi - lo
	if nSlots == 0 {
		return
	}
	end := simtime.StudyDuration
	p := w.params

	// Shelf-level physical interconnect episodes (the loop-level share
	// is generated per system by simulateLoopEpisodes).
	piRate := rt.pi * float64(nSlots) / p.PIBurst.Expected() * (1 - p.PILoopFraction)
	piRNG := shelf.Split(streamPI).RNG()
	mix := p.PICauseWeights[sys.Class]
	w.times = poissonTimes(w.times[:0], piRate, sys.Install, end, &piRNG)
	for _, t0 := range w.times {
		cause := mix.Causes[piRNG.Categorical(mix.Weights)]
		recovered := sys.Paths == fleet.DualPath && cause.PathRecoverable()
		w.emitBurst(sys, shelfID, lo, hi, t0, p.PIBurst.Sample(&piRNG),
			p.PIBurstGapMedian, p.PIBurstGapSigma, cause, recovered, &piRNG)
	}

	// Performance episodes.
	perfRate := rt.perf * float64(nSlots) / p.PerfBurst.Expected()
	perfRNG := shelf.Split(streamPerf).RNG()
	w.times = poissonTimes(w.times[:0], perfRate, sys.Install, end, &perfRNG)
	for _, t0 := range w.times {
		cause := failmodel.CauseSlowIO
		if perfRNG.Bernoulli(0.4) {
			cause = failmodel.CauseRecoveryLoad
		}
		w.emitBurst(sys, shelfID, lo, hi, t0, p.PerfBurst.Sample(&perfRNG),
			p.PerfBurstGapMedian, p.PerfBurstGapSigma, cause, false, &perfRNG)
	}
}

// simulateLoopEpisodes draws loop-level interconnect episodes: faults on
// the FC network shared by all the system's shelves, whose victim disks
// span shelves. They carry the PILoopFraction share of the class's PI
// event rate.
//
//detlint:hotpath
func (w *worker) simulateLoopEpisodes(sys *fleet.System, rt *sysRates, totalSlots int, r *stats.RNG) {
	p := w.params
	if totalSlots == 0 || p.PILoopFraction <= 0 {
		return
	}
	end := simtime.StudyDuration
	rate := rt.pi * float64(totalSlots) *
		p.PILoopFraction / p.PIBurst.Expected()
	mix := p.PICauseWeights[sys.Class]
	w.times = poissonTimes(w.times[:0], rate, sys.Install, end, r)
	for _, t0 := range w.times {
		cause := mix.Causes[r.Categorical(mix.Weights)]
		recovered := sys.Paths == fleet.DualPath && cause.PathRecoverable()
		w.emitSystemBurst(sys, t0, p.PIBurst.Sample(r),
			p.PIBurstGapMedian, p.PIBurstGapSigma, cause, recovered, r)
	}
}

// simulateProtocolEpisodes draws system-level protocol episodes (driver
// rollouts) whose victims span all the system's shelves.
//
//detlint:hotpath
func (w *worker) simulateProtocolEpisodes(sys *fleet.System, rt *sysRates, totalSlots int, r *stats.RNG) {
	p := w.params
	if totalSlots == 0 {
		return
	}
	end := simtime.StudyDuration
	rate := rt.prot * float64(totalSlots) / p.ProtoBurst.Expected()
	w.times = poissonTimes(w.times[:0], rate, sys.Install, end, r)
	for _, t0 := range w.times {
		cause := failmodel.CauseDriverBug
		if r.Bernoulli(0.3) {
			cause = failmodel.CauseFirmwareIncompat
		}
		w.emitSystemBurst(sys, t0, p.ProtoBurst.Sample(r),
			p.ProtoBurstGapMedian, p.ProtoBurstGapSigma, cause, false, r)
	}
}

// emitSystemBurst emits a burst of k events whose victims are drawn
// uniformly over all the system's slots (possibly repeating shelves),
// using the current system's chain arena (w.chains / w.shelfOff).
//
//detlint:hotpath
func (w *worker) emitSystemBurst(sys *fleet.System,
	t0 simtime.Seconds, k int, gapMedian simtime.Seconds, gapSigma float64,
	cause failmodel.Cause, recovered bool, r *stats.RNG) {

	end := simtime.StudyDuration
	t := t0
	for i := 0; i < k; i++ {
		if i > 0 {
			t += lognormalGap(gapMedian, gapSigma, r)
		}
		if t >= end {
			break
		}
		si := r.Intn(sys.Shelves.Len())
		lo, hi := w.shelfOff[si], w.shelfOff[si+1]
		if lo == hi {
			continue
		}
		slot := lo + r.Intn(hi-lo)
		diskID, ok := w.chains[slot].at(t)
		if !ok {
			continue
		}
		w.emit(sys, sys.Shelves.Lo+int32(si), w.slotGrp[slot], diskID, t, cause, recovered)
	}
}

// emitBurst emits a burst of k events on the shelf's flat slots
// [lo, hi) beginning at t0 with lognormal inter-event gaps, choosing
// distinct victim slots via a partial Fisher–Yates draw over a reused
// index buffer — only the k victims are determined, never a full
// permutation.
//
//detlint:hotpath
func (w *worker) emitBurst(sys *fleet.System, shelfID int32, lo, hi int, t0 simtime.Seconds, k int,
	gapMedian simtime.Seconds, gapSigma float64, cause failmodel.Cause,
	recovered bool, r *stats.RNG) {

	end := simtime.StudyDuration
	n := hi - lo
	if k > n {
		k = n
	}
	idx := w.permBuf[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	w.permBuf = idx
	t := t0
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		if i > 0 {
			t += lognormalGap(gapMedian, gapSigma, r)
		}
		if t >= end {
			break
		}
		slot := lo + idx[i]
		diskID, ok := w.chains[slot].at(t)
		if !ok {
			continue
		}
		w.emit(sys, shelfID, w.slotGrp[slot], diskID, t, cause, recovered)
	}
}

// emit records one failure at t of the disk in the given shelf and
// RAID group: the one place an event is built, so its detection time,
// type and placement follow a single rule for slot failures and bursts
// alike. Every occupant of a slot shares its shelf and group, so the
// callers know both without reading a disk.
//
//detlint:hotpath
func (w *worker) emit(sys *fleet.System, shelf, group int32, diskID int, t simtime.Seconds, cause failmodel.Cause, recovered bool) {
	w.events = append(w.events, failmodel.Event{
		Time:      t,
		Detected:  simtime.NextScrub(t),
		Type:      cause.Type(),
		Cause:     cause,
		Disk:      int32(diskID),
		Shelf:     shelf,
		System:    int32(sys.ID),
		Group:     group,
		Recovered: recovered,
	})
}

// poissonTimes appends the points of a homogeneous Poisson process with
// the given annualized rate on [from, to) to buf and returns it. Callers
// pass a recycled worker buffer truncated to length zero, so the draw
// allocates only when a process outgrows every earlier one.
//
//detlint:hotpath
func poissonTimes(buf []simtime.Seconds, ratePerYear float64, from, to simtime.Seconds, r *stats.RNG) []simtime.Seconds {
	if ratePerYear <= 0 || to <= from {
		return buf
	}
	ratePerSecond := ratePerYear / float64(simtime.SecondsPerYear)
	t := float64(from)
	for {
		t += r.Exponential(ratePerSecond)
		if t >= float64(to) {
			return buf
		}
		buf = append(buf, simtime.Seconds(t))
	}
}

// lazyRNG is a stream expanded at its first draw.
type lazyRNG struct {
	key stats.Key
	r   stats.RNG
	ok  bool
}

// get returns the stream's generator, expanding it on first use.
//
//detlint:hotpath
func (l *lazyRNG) get() *stats.RNG {
	if !l.ok {
		l.r, l.ok = l.key.RNG(), true
	}
	return &l.r
}

// arrivals is poissonTimes over [from, StudyDuration) on stream k,
// except that it expands no generator when the stream's first uniform
// u satisfies 0 < u < none: none is the process's noArrivalBelow
// threshold for from, or 0 where none is known, and such a u proves
// that poissonTimes would draw no point.
//
//detlint:hotpath
func arrivals(buf []simtime.Seconds, ratePerYear, none float64, from simtime.Seconds, k stats.Key) []simtime.Seconds {
	if u, ok := k.FirstFloat64(); ok && u > 0 && u < none {
		return buf
	}
	r := k.RNG()
	return poissonTimes(buf, ratePerYear, from, simtime.StudyDuration, &r)
}

// noArrivalBelow returns the first-arrival threshold of a Poisson
// process with the given annual rate over [from, StudyDuration): for a
// first uniform u of the process's stream with 0 < u < threshold,
// poissonTimes draws no point. It costs one Exp per system where the
// draw it replaces costs a generator expansion and a Log per slot.
//
// Proof. poissonTimes draws no point iff its first clock value
// fl(from + fl(fl(-Log(u)) / rps)) is at least to = StudyDuration,
// where rps = fl(ratePerYear / SecondsPerYear) and fl rounds to
// nearest (a fused operation rounds once, which only helps). Let
// μ = 2^-53, W = to - from (exact: both are integers below 2^53), x the
// exact real product rps·W, and assume Log and Exp have relative error
// at most a = 2^-40 on normal results, 4096 times the 1 ulp of the
// algorithms Go uses. The threshold is thr = fl(fl(Exp(-fl(rps·W)))·(1-δ))
// with δ = 2^-20, so 1-δ is exact. Take 0 < x ≤ 64, so e^-x ≥ 2^-93
// is a normal float; for any other x, NaN included, the threshold is 0
// and every draw falls back to poissonTimes.
//
//  1. If -ln u ≥ x(1+2a), no point is drawn: the quotient is at least
//     (-ln u)(1-a)(1-μ)/rps ≥ x(1+2a)(1-a-μ)/rps ≥ W, so from plus it
//     is at least to in the reals, and rounding is monotone and to is
//     representable, so the rounded sum is at least to.
//  2. If u < thr, then -ln u ≥ x(1+2a): fl(rps·W) = x(1+ε) with
//     |ε| ≤ μ, so thr ≤ e^-x · e^(xμ)(1+a)(1+μ)(1-δ), and for x ≤ 64
//     e^(xμ)(1+a)(1+μ) ≤ 1+2^-39, so thr ≤ e^-x(1+2^-39)(1-2^-20)
//     < e^-x(1-2^-21) ≤ e^-x(1-2ax) ≤ e^(-x(1+2a)), as 2ax ≤ 2^-33.
func noArrivalBelow(ratePerYear float64, from simtime.Seconds) float64 {
	const delta = 1.0 / (1 << 20)
	rps := ratePerYear / float64(simtime.SecondsPerYear)
	x := rps * float64(simtime.StudyDuration-from)
	if !(x > 0 && x <= 64) {
		return 0
	}
	return math.Exp(-x) * (1 - delta)
}

// lognormalGap draws a lognormal inter-event gap with the given median
// and log-space sigma, floored at one second.
//
//detlint:hotpath
func lognormalGap(median simtime.Seconds, sigma float64, r *stats.RNG) simtime.Seconds {
	g := simtime.Seconds(r.LogNormal(math.Log(float64(median)), sigma))
	if g < 1 {
		g = 1
	}
	return g
}
