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
	built := len(f.Disks)
	sim.Run(f, failmodel.DefaultParams(), 43)
	if len(f.Disks) == built {
		t.Fatal("setup: the simulation installed no replacements")
	}

	seen := make([]int, len(f.Disks))
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
			if int(f.Disks[id].Shelf) != shelf {
				t.Fatalf("shelf %d lists disk %d of shelf %d", shelf, id, f.Disks[id].Shelf)
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
	f.Replace(int(f.Shelves[1].Disks.Lo), 1000)
	f.Replace(int(f.Shelves[1].Disks.Lo)+1, 2000) // same shelf: fine
	defer func() {
		if recover() == nil {
			t.Error("a replacement out of shelf order should panic")
		}
	}()
	f.Replace(int(f.Shelves[0].Disks.Lo), 3000)
}
