package fleet_test

import (
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

// TestShelfDisksPartitionSimulatedFleet requires ShelfDisks to list
// every disk of a simulated fleet, replacements included, under exactly
// one shelf: its own. Each list ascends and opens with the shelf's
// as-built span.
func TestShelfDisksPartitionSimulatedFleet(t *testing.T) {
	f := fleet.BuildDefault(0.02, 42)
	built := f.NumDisks()
	sim.Run(f, failmodel.DefaultParams(), 43)
	if f.NumDisks() == built {
		t.Fatal("setup: the simulation installed no replacements")
	}

	seen := make([]int, f.NumDisks())
	var ids []int
	for shelf := range f.Shelves {
		span := f.Shelves[shelf].Disks
		ids = f.ShelfDisks(ids[:0], shelf)
		if len(ids) < span.Len() {
			t.Fatalf("shelf %d lists %d disks, fewer than its span %v", shelf, len(ids), span)
		}
		for i, id := range ids {
			if i < span.Len() && id != int(span.Lo)+i {
				t.Fatalf("shelf %d: disk %d at position %d, want its span %v first", shelf, id, i, span)
			}
			if i > 0 && id <= ids[i-1] {
				t.Fatalf("shelf %d: disk IDs %v do not ascend", shelf, ids)
			}
			if d := f.Disk(id); int(d.Shelf) != shelf {
				t.Fatalf("shelf %d lists disk %d of shelf %d", shelf, id, d.Shelf)
			}
			seen[id]++
		}
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("disk %d appears in %d shelf lists, want 1", id, n)
		}
	}
}

// TestReplaceRequiresShelfOrder pins the order ShelfDisks relies on: a
// replacement into a shelf below the last replacement's panics.
func TestReplaceRequiresShelfOrder(t *testing.T) {
	f := fleet.BuildDefault(0.002, 11)
	f.Replace(f.Disk(int(f.Shelves[1].Disks.Lo)), 1000)
	f.Replace(f.Disk(int(f.Shelves[1].Disks.Lo)+1), 2000) // same shelf: fine
	defer func() {
		if recover() == nil {
			t.Error("a replacement out of shelf order should panic")
		}
	}()
	f.Replace(f.Disk(int(f.Shelves[0].Disks.Lo)), 3000)
}

// TestRemoveRequiresIDOrder pins the order Disk's removal search relies
// on: an as-built disk removed twice, or below the last one removed,
// panics; replacements may be removed in any order.
func TestRemoveRequiresIDOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first int
	}{{"twice", 5}, {"below", 6}} {
		t.Run(tc.name, func(t *testing.T) {
			f := fleet.BuildDefault(0.002, 11)
			f.Remove(tc.first, 1000, false)
			defer func() {
				if recover() == nil {
					t.Error("an as-built removal out of ID order should panic")
				}
			}()
			f.Remove(5, 2000, false)
		})
	}
	f := fleet.BuildDefault(0.002, 11)
	a := f.Replace(f.Disk(7), 1000)
	b := f.Replace(f.Disk(8), 1000)
	f.Remove(b, 2000, true)
	f.Remove(a, 3000, false)
	if f.Disk(a).Remove != 3000 || !f.Disk(b).Replaced {
		t.Error("replacement removals were not recorded")
	}
}
