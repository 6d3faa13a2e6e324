package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
)

// runDigest hashes everything a simulation run leaves behind: every
// event field in stream order, every disk record of the mutated fleet
// (replacements included, so their IDs and residencies are pinned), and
// every shelf's mount list in order.
func runDigest(res *Result) string {
	h := sha256.New()
	w := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	w(int64(len(res.Events)))
	for _, e := range res.Events {
		w(int64(e.Time), int64(e.Detected), int64(e.Type), int64(e.Cause),
			int64(e.Disk), int64(e.Shelf), int64(e.System), int64(e.Group), b2i(e.Recovered))
	}
	f := res.Fleet
	w(int64(len(f.Disks)))
	for _, d := range f.Disks {
		w(int64(d.Install), int64(d.Remove), int64(d.System), int64(d.Shelf),
			int64(d.RAIDGrp), int64(d.Slot), b2i(d.Replaced))
	}
	for _, sh := range f.Shelves {
		w(int64(len(sh.Disks)))
		for _, id := range sh.Disks {
			w(int64(id))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRunGoldenDigest pins the simulator's complete output — event
// stream, post-simulation disk slab, shelf mount lists — at one fleet
// and seed under each variance mode. The digests were recorded from the
// sharded engine this one replaced (equal at 1 and 3 workers), so any
// change to them is a changed simulation, not a refactor.
func TestRunGoldenDigest(t *testing.T) {
	params := failmodel.DefaultParams()
	cases := []struct {
		name string
		opts Opts
		want string
	}{
		{"plain", Opts{}, "9c3e37ec129dea4de1d0bb3325fc6008bb45af8b0fbecbe60ff843e132fedb35"},
		{"antithetic", Opts{Antithetic: true}, "3e132b49b742a460c59087097ea8bea517e1f278c7bcb9ca815111b7e3db44ac"},
		{"stratified", Opts{Strata: Strata{Index: 3, Count: 8, Seed: 77}}, "872055e92467e7fa3a5a2611f9f984058bc3bb1f60e4f3fb8aa8a419fa08822e"},
	}
	for _, tc := range cases {
		f := fleet.BuildDefault(0.02, 9)
		res := RunOpts(f, params, 10, nil, tc.opts)
		if len(res.Events) == 0 || len(f.Disks) == len(fleet.BuildDefault(0.02, 9).Disks) {
			t.Fatalf("%s: setup produced no events or no replacements", tc.name)
		}
		if got := runDigest(res); got != tc.want {
			t.Errorf("%s: run digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
