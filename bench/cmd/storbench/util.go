package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"storagesubsys/internal/stats"
)

// quantile returns the p-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MiB. It is printed for reference only: it
// swings by a fifth between identical runs with the timing of garbage
// collection, so the benchmark's memory metric is liveHeap's instead.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}

// heapSampleEvery is the live-heap sampling period.
const heapSampleEvery = 10 * time.Millisecond

// liveHeap samples the live heap — the bytes the last garbage
// collection found reachable (runtime/metrics /gc/heap/live:bytes) —
// until stopped.
type liveHeap struct {
	quit, done chan struct{}
	samples    []float64 // MiB
}

func startLiveHeap() *liveHeap {
	h := &liveHeap{quit: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				h.samples = append(h.samples, float64(sample[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// stop ends sampling and returns the time-averaged live heap in MiB:
// the memory the program holds over the run. The mean repeats within a
// few percent between runs; the peak and even the median move with
// where garbage collections fall relative to fleet builds.
func (h *liveHeap) stop() float64 {
	close(h.quit)
	<-h.done
	if len(h.samples) == 0 {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64()) / (1 << 20)
	}
	total := 0.0
	for _, v := range h.samples {
		total += v
	}
	return total / float64(len(h.samples))
}

// seedSeq derives a workload's input seeds from the benchmark seed: the
// first value is the seed itself (so the default 42 replays the
// canonical sweep seed), later values come from one stats.RNG stream.
// Both commits of a comparison therefore see the same input sequence.
type seedSeq struct {
	first bool
	seed  int64
	rng   *stats.RNG
}

func newSeedSeq(seed int64) *seedSeq {
	return &seedSeq{first: true, seed: seed, rng: stats.NewRNG(seed)}
}

// next returns the next nonzero seed (a zero seed in a scenario file
// means "inherit", so it is never handed out).
func (s *seedSeq) next() int64 {
	if s.first {
		s.first = false
		if s.seed != 0 {
			return s.seed
		}
	}
	for {
		if v := s.rng.Int63(); v != 0 {
			return v
		}
	}
}
