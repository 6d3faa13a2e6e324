package sim

import (
	"sort"
	"sync"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/stats"
)

// Scratch owns the per-worker simulation state — event buffers,
// replacement arenas, and every per-system scratch buffer — so a caller
// running many simulations (the Monte-Carlo sweep engine) can recycle
// it across runs and keep steady-state allocation flat: a warm scratch
// plus a fleet.Reset fleet make a whole re-simulation allocate only a
// small constant plus any event-buffer growth.
//
// A Scratch must only be reused once the previous run's outputs are no
// longer needed: the next run recycles the same event buffers and
// replacement records, clobbering the prior Result.Events and (unless
// the fleet has been Reset) the disks committed into the fleet. The
// zero value is ready to use.
type Scratch struct {
	ws      []*worker
	merged  []failmodel.Event
	streams [][]failmodel.Event
}

// RunWorkers simulates the fleet with the given number of worker
// goroutines. Workers <= 0 uses one per available CPU
// (fleet.EffectiveWorkers).
//
// The fleet's systems are split into contiguous shards (system-ID
// order). Each worker simulates its shard into a private event buffer
// and a private replacement-disk arena — per-system Poisson processes
// draw from RNG streams split off the seed by system ID, so shard
// boundaries never perturb the randomness. The merge phase then
//
//  1. commits each arena in shard order, which assigns replacement
//     disks exactly the IDs a serial run would have,
//  2. rewrites provisional (negative) disk IDs in the buffered events,
//  3. k-way merges the per-worker streams, each already sorted by
//     (time, final disk ID).
//
// The output is therefore bit-identical for every worker count: same
// Result.Events, same Fleet topology, same Fleet.DiskYears.
func RunWorkers(f *fleet.Fleet, params *failmodel.Params, seed int64, workers int) *Result {
	return RunWorkersScratch(f, params, seed, workers, nil)
}

// RunWorkersScratch is RunWorkers with caller-owned scratch: passing
// the same Scratch across runs recycles the worker event buffers,
// replacement arenas, and per-system scratch, so repeated simulations
// (Monte-Carlo trials over a Reset fleet) add no steady-state garbage
// beyond their outputs. A nil scratch is a one-shot run, exactly
// RunWorkers. The result is bit-identical to a fresh run for every
// (workers, scratch) combination.
func RunWorkersScratch(f *fleet.Fleet, params *failmodel.Params, seed int64, workers int, sc *Scratch) *Result {
	return RunWorkersOpts(f, params, seed, workers, sc, Opts{})
}

// RunWorkersOpts is RunWorkersScratch with a variance-reduction mode
// (see variance.go). The zero Opts is exactly RunWorkersScratch — the
// plain engine, bit for bit. With opts.Antithetic the entire stream
// tree is mirrored; with opts.Strata.Count > 0 baseline failure counts
// are drawn from this trial's stratum. Either way the result remains
// bit-identical for every (workers, scratch) combination.
func RunWorkersOpts(f *fleet.Fleet, params *failmodel.Params, seed int64, workers int, sc *Scratch, opts Opts) *Result {
	workers = fleet.EffectiveWorkers(workers)
	if n := len(f.Systems); workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if sc == nil {
		sc = &Scratch{}
	}
	for len(sc.ws) < workers {
		sc.ws = append(sc.ws, &worker{})
	}

	// The root stream is shared read-only across workers: Split is a
	// pure function of (identity, stream key), so concurrent splits are
	// race-free and allocation-free. An antithetic run mirrors the root;
	// the flip mask propagates through every descendant split.
	root := stats.NewRNG(seed).Split(streamSim)
	if opts.Antithetic {
		root = root.Antithetic()
	}
	initial := len(f.Disks)

	ws := sc.ws[:workers]
	var wg sync.WaitGroup
	for i := range ws {
		w := ws[i]
		w.f, w.params, w.initial = f, params, initial
		w.strata = opts.Strata
		if opts.Strata.Count > 0 {
			w.permRoot = *stats.NewRNG(opts.Strata.Seed)
		}
		w.events = w.events[:0]
		w.arena.Reset()
		lo := i * len(f.Systems) / workers
		hi := (i + 1) * len(f.Systems) / workers
		wg.Add(1)
		go func(w *worker, systems []*fleet.System) {
			defer wg.Done()
			for _, sys := range systems {
				sysRNG := root.Split(streamKey(streamSys, sys.ID))
				w.simulateSystem(sys, &sysRNG)
			}
			// Sort the shard's stream by (time, eventual final disk ID);
			// diskKey stands in for final IDs, which are not assigned
			// yet. The stable sort keeps generation order for the
			// (astronomically rare) same-time same-disk ties, so the
			// order cannot depend on how systems were sharded.
			sort.SliceStable(w.events, func(i, j int) bool {
				a, b := w.events[i], w.events[j]
				if a.Time != b.Time {
					return a.Time < b.Time
				}
				return w.diskKey(a.Disk) < w.diskKey(b.Disk)
			})
		}(w, f.Systems[lo:hi])
	}
	wg.Wait()

	// Deterministic merge. Committing arenas in shard order is the same
	// as committing per system in ID order, because shards are
	// contiguous and each arena is filled in system order.
	if cap(sc.streams) < len(ws) {
		sc.streams = make([][]failmodel.Event, len(ws))
	}
	streams := sc.streams[:len(ws)]
	total := 0
	for i, w := range ws {
		base := f.CommitReplacements(&w.arena)
		for j := range w.events {
			if w.events[j].Disk < 0 {
				w.events[j].Disk = base + (-w.events[j].Disk - 1)
			}
		}
		streams[i] = w.events
		total += len(w.events)
		// Drop the per-run references so a long-lived Scratch cannot pin
		// a fleet (a full-scale one holds ~1.7M disks) after the run.
		w.f, w.params = nil, nil
	}
	merged, usedBuf := mergeStreams(streams, total, sc.merged)
	if usedBuf {
		// Retain the merge buffer for the next run. When the merge
		// degenerates to a single non-empty stream it returns that
		// worker's own event buffer instead of writing into buf;
		// retaining the alias would make the next run merge into an
		// array that doubles as a live input stream.
		sc.merged = merged
	}
	return &Result{Fleet: f, Events: merged}
}

// mergeStreams k-way merges event streams that are each sorted by
// (Time, Disk), appending into buf (which may be nil). usedBuf reports
// whether out is merge-owned storage (buf or its grown replacement) —
// safe for the caller to retain and reuse — as opposed to an alias of
// an input stream. Streams never tie on (Time, Disk): a disk belongs
// to exactly one system, and every system's events live in exactly one
// stream, so the merge order is total and deterministic. With a single
// live stream that stream is returned directly, unbuffered (usedBuf
// false).
func mergeStreams(streams [][]failmodel.Event, total int, buf []failmodel.Event) (out []failmodel.Event, usedBuf bool) {
	var live [][]failmodel.Event
	for _, s := range streams {
		if len(s) > 0 {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil, false
	}
	if len(live) == 1 {
		return live[0], false
	}

	// Min-heap over each live stream's head event.
	for i := len(live)/2 - 1; i >= 0; i-- {
		siftDown(live, i)
	}
	out = buf[:0]
	if cap(out) < total {
		out = make([]failmodel.Event, 0, total)
	}
	for {
		out = append(out, live[0][0])
		if rest := live[0][1:]; len(rest) > 0 {
			live[0] = rest
		} else {
			live[0] = live[len(live)-1]
			live = live[:len(live)-1]
			if len(live) == 1 {
				return append(out, live[0]...), true
			}
		}
		siftDown(live, 0)
	}
}

// headLess orders two streams by their head events' (Time, Disk).
func headLess(a, b []failmodel.Event) bool {
	if a[0].Time != b[0].Time {
		return a[0].Time < b[0].Time
	}
	return a[0].Disk < b[0].Disk
}

func siftDown(h [][]failmodel.Event, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && headLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && headLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
