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
// replacement disk is appended to the fleet (fleet.Replace) the moment
// it is installed, so it carries its final ID from the start. The
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
// any growth of the fleet's disk slab.
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
	// Fleet is the simulated topology. The simulator mutates it: failed
	// and churned disks get Remove times, and replacement disks are
	// appended, so Fleet.DiskYears is the exact AFR denominator.
	Fleet *fleet.Fleet
	// Events holds every failure occurrence (including multipath-
	// recovered interconnect faults), sorted by occurrence time.
	Events []failmodel.Event
}

// VisibleEvents returns the events that surfaced as storage subsystem
// failures (excludes multipath-recovered faults). The result is sized
// exactly — matches are counted before the single allocation — and is
// always a fresh slice, never an alias of Events.
func (r *Result) VisibleEvents() []failmodel.Event {
	n := 0
	for _, e := range r.Events {
		if e.Visible() {
			n++
		}
	}
	out := make([]failmodel.Event, 0, n)
	for _, e := range r.Events {
		if e.Visible() {
			out = append(out, e)
		}
	}
	return out
}

// Run simulates the fleet under the given parameters. The result is
// fully determined by (fleet, params, seed). The fleet is mutated (disk
// removals and replacement installs); pass a freshly built fleet. Run is
// RunOpts with fresh scratch.
func Run(f *fleet.Fleet, params *failmodel.Params, seed int64) *Result {
	return RunOpts(f, params, seed, nil)
}

// Scratch owns a run's reusable state — the event buffer and every
// per-system scratch buffer — so a caller running many simulations (the
// Monte-Carlo sweep engine) can recycle it across runs and keep
// steady-state allocation flat: a warm scratch plus a fleet.Reset fleet
// make a whole re-simulation allocate only a small constant plus any
// event-buffer growth.
//
// A Scratch must only be reused once the previous run's events are no
// longer needed: the next run recycles the same event buffer,
// clobbering the prior Result.Events. The zero value is ready to use.
type Scratch struct {
	w worker
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

	root := stats.NewRNG(seed).Split(streamSim)
	for i := range f.Systems {
		sys := &f.Systems[i]
		sysRNG := root.Split(streamKey(streamSys, sys.ID))
		w.simulateSystem(sys, &sysRNG)
	}
	// The stable sort keeps generation order for the (astronomically
	// rare) same-time same-disk ties.
	slices.SortStableFunc(w.events, func(a, b failmodel.Event) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Disk, b.Disk)
	})
	// Drop the per-run references so a long-lived Scratch cannot pin a
	// fleet (a full-scale one holds ~1.7M disks) after the run.
	w.f, w.params = nil, nil
	return &Result{Fleet: f, Events: w.events}
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

// simulateSystem realizes every failure process of one system; with
// the scratch buffers warm it allocates only output events.
//
//detlint:hotpath
func (w *worker) simulateSystem(sys *fleet.System, r *stats.RNG) {
	end := simtime.StudyDuration
	if sys.Install >= end {
		return
	}
	p := w.params
	// Every disk of a system, replacements included, is the system's
	// model, so the per-model rates are resolved once per system.
	baseRate, hitProb := p.DiskBaseRate(sys.DiskModel), p.EnvHitProb(sys.DiskModel)

	// Per-slot occupancy chains for the whole system, flat in shelf
	// order, for victim lookup by the episode processes.
	w.shelfOff = w.shelfOff[:0]
	used := 0

	for shelfID := sys.Shelves.Lo; shelfID < sys.Shelves.Hi; shelfID++ {
		shelf := &w.f.Shelves[shelfID]
		shelfRNG := r.Split(streamKey(streamShelf, int(shelfID)))

		// Environment episodes shared by every disk in the shelf.
		envRNG := shelfRNG.Split(streamEnv)
		w.envTimes = poissonTimes(w.envTimes[:0], p.EnvEpisodeRate, sys.Install, end, &envRNG)

		w.shelfOff = append(w.shelfOff, used)
		// The shelf's span holds its as-built slots only; the
		// replacements simulateSlot appends lie past every span.
		for idx := range shelf.Disks.Len() {
			slotRNG := shelfRNG.Split(streamKey(streamSlot, idx))
			buf := w.chainBuf(used) // grows w.chains before the index store below
			w.chains[used] = w.simulateSlot(sys, baseRate, hitProb, int(shelf.Disks.Lo)+idx, w.envTimes, &slotRNG, buf)
			used++
		}

		w.simulateShelfEpisodes(sys, shelf, w.chains[w.shelfOff[len(w.shelfOff)-1]:used], &shelfRNG)
	}
	w.shelfOff = append(w.shelfOff, used)

	loopRNG := r.Split(streamLoop)
	w.simulateLoopEpisodes(sys, used, &loopRNG)
	protoRNG := r.Split(streamProto)
	w.simulateProtocolEpisodes(sys, used, &protoRNG)
}

// simulateSlot walks one slot's lifetime: the initial disk, then any
// replacements triggered by disk failures or churn. Baseline failures
// and churn are Poisson processes over the whole window thinned by slot
// occupancy (valid because both are memoryless and replacements share
// the failed disk's model); environment hits are per-episode Bernoulli
// marks spread over the episode window, each hitting with probability
// hitProb. The returned chain reuses the caller-provided buffer's
// storage where capacity allows.
//
//detlint:hotpath
func (w *worker) simulateSlot(sys *fleet.System, baseRate, hitProb float64, diskID int, envTimes []simtime.Seconds, r *stats.RNG, chain slotChain) slotChain {
	end := simtime.StudyDuration
	p := w.params
	install := simtime.Seconds(w.f.Disks[diskID].Install)

	cands := w.cands[:0]
	baseRNG := r.Split(streamBase)
	w.times = poissonTimes(w.times[:0], baseRate, install, end, &baseRNG)
	for _, t := range w.times {
		cands = append(cands, candidate{t, candBase})
	}
	envRNG := r.Split(streamEnvHit)
	for _, et := range envTimes {
		if envRNG.Bernoulli(hitProb) {
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
	churnRNG := r.Split(streamChurn)
	w.times = poissonTimes(w.times[:0], sys.ChurnPerDiskYear, install, end, &churnRNG)
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

	// The slot's current occupant is tracked by ID: cur points into the
	// fleet's disk slab, and a Replace may move the slab, so cur is
	// resolved again after every replacement.
	chain = append(chain, occupancy{disk: diskID, from: install, to: end})
	curID := diskID
	cur := &w.f.Disks[curID]
	causeRNG := r.Split(streamCause)
	// Stochastic repair lags draw from their own slot stream, and only
	// when the distribution is enabled: the default deterministic lag
	// consumes no randomness, so calibrated streams are untouched.
	var repairRNG stats.RNG
	if p.RepairLagSigma > 0 {
		repairRNG = r.Split(streamRepair)
	}
	for _, c := range cands {
		if c.t < simtime.Seconds(cur.Install) || c.t >= end {
			continue // slot empty (repair gap) or outside the window
		}
		switch c.kind {
		case candBase, candEnv:
			cause := failmodel.CauseDiskEnv
			if c.kind == candBase {
				cause = failmodel.CauseDiskMedia
				if causeRNG.Bernoulli(0.4) {
					cause = failmodel.CauseDiskMechanical
				}
			}
			w.events = append(w.events, failmodel.Event{
				Time:     c.t,
				Detected: simtime.NextScrub(c.t),
				Type:     failmodel.DiskFailure,
				Cause:    cause,
				Disk:     curID,
				Shelf:    int(cur.Shelf),
				System:   sys.ID,
				Group:    int(cur.RAIDGrp),
			})
			cur.Remove = int32(c.t)
			cur.Replaced = true
			chain[len(chain)-1].to = c.t
			lag := p.RepairLag
			if p.RepairLagSigma > 0 {
				lag = lognormalGap(p.RepairLag, p.RepairLagSigma, &repairRNG)
			}
			reinstall := c.t + lag
			if reinstall >= end {
				return chain
			}
			curID = w.f.Replace(curID, reinstall)
			cur = &w.f.Disks[curID]
			chain = append(chain, occupancy{disk: curID, from: reinstall, to: end})
		case candChurn:
			// Proactive churn: swap immediately, no failure event.
			cur.Remove = int32(c.t)
			chain[len(chain)-1].to = c.t
			curID = w.f.Replace(curID, c.t)
			cur = &w.f.Disks[curID]
			chain = append(chain, occupancy{disk: curID, from: c.t, to: end})
		}
	}
	return chain
}

// simulateShelfEpisodes draws the interconnect and performance episode
// processes for one shelf and emits their event bursts.
//
//detlint:hotpath
func (w *worker) simulateShelfEpisodes(sys *fleet.System, shelf *fleet.Shelf, chains []slotChain, r *stats.RNG) {
	nSlots := len(chains)
	if nSlots == 0 {
		return
	}
	end := simtime.StudyDuration
	p := w.params

	// Shelf-level physical interconnect episodes (the loop-level share
	// is generated per system by simulateLoopEpisodes).
	piRate := p.PIEpisodeRate(sys.Class, sys.ShelfModel, sys.DiskModel, nSlots) * (1 - p.PILoopFraction)
	piRNG := r.Split(streamPI)
	mix := p.PICauseWeights[sys.Class]
	w.times = poissonTimes(w.times[:0], piRate, sys.Install, end, &piRNG)
	for _, t0 := range w.times {
		cause := mix.Causes[piRNG.Categorical(mix.Weights)]
		recovered := sys.Paths == fleet.DualPath && cause.PathRecoverable()
		w.emitBurst(sys, chains, t0, p.PIBurst.Sample(&piRNG),
			p.PIBurstGapMedian, p.PIBurstGapSigma, cause, recovered, &piRNG)
	}

	// Performance episodes.
	perfRate := p.PerfRate(sys.Class, sys.DiskModel) * float64(nSlots) / p.PerfBurst.Expected()
	perfRNG := r.Split(streamPerf)
	w.times = poissonTimes(w.times[:0], perfRate, sys.Install, end, &perfRNG)
	for _, t0 := range w.times {
		cause := failmodel.CauseSlowIO
		if perfRNG.Bernoulli(0.4) {
			cause = failmodel.CauseRecoveryLoad
		}
		w.emitBurst(sys, chains, t0, p.PerfBurst.Sample(&perfRNG),
			p.PerfBurstGapMedian, p.PerfBurstGapSigma, cause, false, &perfRNG)
	}
}

// simulateLoopEpisodes draws loop-level interconnect episodes: faults on
// the FC network shared by all the system's shelves, whose victim disks
// span shelves. They carry the PILoopFraction share of the class's PI
// event rate.
//
//detlint:hotpath
func (w *worker) simulateLoopEpisodes(sys *fleet.System, totalSlots int, r *stats.RNG) {
	p := w.params
	if totalSlots == 0 || p.PILoopFraction <= 0 {
		return
	}
	end := simtime.StudyDuration
	rate := p.PIRate(sys.Class, sys.ShelfModel, sys.DiskModel) * float64(totalSlots) *
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
func (w *worker) simulateProtocolEpisodes(sys *fleet.System, totalSlots int, r *stats.RNG) {
	p := w.params
	if totalSlots == 0 {
		return
	}
	end := simtime.StudyDuration
	rate := p.ProtoRate(sys.Class, sys.DiskModel) * float64(totalSlots) / p.ProtoBurst.Expected()
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
		shelfChains := w.chains[w.shelfOff[si]:w.shelfOff[si+1]]
		if len(shelfChains) == 0 {
			continue
		}
		diskID, ok := shelfChains[r.Intn(len(shelfChains))].at(t)
		if !ok {
			continue
		}
		d := &w.f.Disks[diskID]
		w.events = append(w.events, failmodel.Event{
			Time:      t,
			Detected:  simtime.NextScrub(t),
			Type:      cause.Type(),
			Cause:     cause,
			Disk:      diskID,
			Shelf:     int(d.Shelf),
			System:    sys.ID,
			Group:     int(d.RAIDGrp),
			Recovered: recovered,
		})
	}
}

// emitBurst emits a burst of k same-shelf events beginning at t0 with
// lognormal inter-event gaps, choosing distinct victim slots via a
// partial Fisher–Yates draw over a reused index buffer — only the k
// victims are determined, never a full permutation.
//
//detlint:hotpath
func (w *worker) emitBurst(sys *fleet.System, chains []slotChain, t0 simtime.Seconds, k int,
	gapMedian simtime.Seconds, gapSigma float64, cause failmodel.Cause,
	recovered bool, r *stats.RNG) {

	end := simtime.StudyDuration
	n := len(chains)
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
		diskID, ok := chains[idx[i]].at(t)
		if !ok {
			continue
		}
		d := &w.f.Disks[diskID]
		w.events = append(w.events, failmodel.Event{
			Time:      t,
			Detected:  simtime.NextScrub(t),
			Type:      cause.Type(),
			Cause:     cause,
			Disk:      diskID,
			Shelf:     int(d.Shelf),
			System:    sys.ID,
			Group:     int(d.RAIDGrp),
			Recovered: recovered,
		})
	}
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
