package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"storagesubsys/internal/failmodel"
)

// stableOrder is the order RunOpts gave before sortEvents: a stable
// sort of the events themselves by (Time, Disk). It is kept as the
// oracle sortEvents must reproduce.
func stableOrder(events []failmodel.Event) []failmodel.Event {
	out := slices.Clone(events)
	slices.SortStableFunc(out, func(a, b failmodel.Event) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.Disk, b.Disk)
	})
	return out
}

// tagged returns events with the given (Time, Disk) keys, each tagged
// with its generation index in Shelf, so a tie put out of generation
// order makes two results differ.
func tagged(keys [][2]int) []failmodel.Event {
	evs := make([]failmodel.Event, len(keys))
	for i, k := range keys {
		evs[i] = failmodel.Event{Time: int64(k[0]), Disk: int32(k[1]), Shelf: int32(i)}
	}
	return evs
}

// checkOrder sorts a copy of evs with sortEvents through the recycled
// permutation perm and fails unless it gives the oracle's order.
func checkOrder(t *testing.T, label string, evs []failmodel.Event, perm []int32) []int32 {
	t.Helper()
	want := stableOrder(evs)
	got := slices.Clone(evs)
	perm = sortEvents(got, perm)
	if !slices.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s (%d events): position %d holds %+v, the stable sort %+v", label, len(evs), i, got[i], want[i])
			}
		}
	}
	return perm
}

// TestEventOrderMatchesStableSort holds sortEvents to the stable sort
// it replaced, over random event sets dense in equal (Time, Disk)
// pairs and over sorted, reversed and all-equal inputs. One
// permutation is recycled across every case, growing and shrinking as
// the run's scratch does.
func TestEventOrderMatchesStableSort(t *testing.T) {
	var perm []int32
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 12, 13, 50, 257, 1000, 5000, 17, 4096} {
		for trial := 0; trial < 4; trial++ {
			times, disks := 1+r.Intn(n/4+1), 1+r.Intn(4)
			keys := make([][2]int, n)
			for i := range keys {
				keys[i] = [2]int{r.Intn(times), r.Intn(disks)}
			}
			perm = checkOrder(t, "random", tagged(keys), perm)
		}
		sorted := make([][2]int, n)
		for i := range sorted {
			sorted[i] = [2]int{i / 3, i % 2}
		}
		perm = checkOrder(t, "sorted", tagged(sorted), perm)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		perm = checkOrder(t, "reversed", tagged(reversed), perm)
		perm = checkOrder(t, "all-equal", tagged(make([][2]int, n)), perm)
	}

	// A warm permutation makes the sort allocation-free.
	evs := tagged(make([][2]int, 1000))
	perm = sortEvents(evs, perm)
	if allocs := testing.AllocsPerRun(5, func() { perm = sortEvents(evs, perm) }); allocs != 0 {
		t.Errorf("sortEvents with a warm permutation allocated %.0f times, want 0", allocs)
	}
}

// FuzzEventOrder holds sortEvents to the stable sort on arbitrary
// inputs: each pair of bytes is one event, its low bits the time and
// disk, so short inputs are dense in ties.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 1, 8, 2, 7, 3, 6, 0, 5, 1, 4, 2, 3, 3, 2, 0, 1, 1, 0, 2, 9, 1, 8, 2, 7, 3, 6, 0, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([][2]int, len(data)/2)
		for i := range keys {
			keys[i] = [2]int{int(data[2*i] % 16), int(data[2*i+1] % 4)}
		}
		checkOrder(t, "fuzz", tagged(keys), nil)
	})
}
