package autosupport

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"storagesubsys/internal/failmodel"
	"storagesubsys/internal/fleet"
	"storagesubsys/internal/sim"
)

// TestRenderGoldenDigest pins the rendered support logs bit for bit:
// every system's RenderSystemLog text, plus each bundle's week and
// message count, at scale 0.02, build seed 42 and sim seed 43 (the
// archive cmd/fleetgen writes by default). Bundle order and the order
// of equal-time messages inside a bundle are part of the bytes. The
// digest was recorded before log messages stopped carrying their text,
// so any change to it is a changed log, not a refactor.
func TestRenderGoldenDigest(t *testing.T) {
	const want = "e193271ca7f3a85f2063f5f653a7d2d1f1a5bcee43d019ba18bb341511aa02f0"
	f := fleet.BuildDefault(0.02, 42)
	res := sim.Run(f, failmodel.DefaultParams(), 43)
	db := Collect(f, res.Events)
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, sysID := range db.Systems() {
		put(sysID)
		for _, b := range db.Bundles(sysID) {
			put(b.Week)
			put(len(b.Messages))
		}
		h.Write([]byte(db.RenderSystemLog(sysID)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("render digest %s, want %s", got, want)
	}
}

// TestMineEventsGoldenDigest pins MineEvents' output — every field of
// every event, in order, and the dropped count — for three simulations
// of one fleet rolled back with Reset between them, the way a sweep
// reuses a fleet. Recorded with TestRenderGoldenDigest.
func TestMineEventsGoldenDigest(t *testing.T) {
	const want = "84688d9c0112a856fb6eb7440320c0a1355b8b65c5c9022a3f424ddb4621245e"
	f := fleet.BuildDefault(0.1, 42)
	ck := f.Checkpoint()
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, seed := range []int64{43, 44, 45} {
		f.Reset(ck)
		res := sim.Run(f, failmodel.DefaultParams(), seed)
		events, dropped := Collect(f, res.Events).MineEvents()
		put(len(events))
		put(dropped)
		for _, e := range events {
			put(int(e.Time))
			put(int(e.Detected))
			put(int(e.Type))
			put(int(e.Cause))
			put(int(e.Disk))
			put(int(e.Shelf))
			put(int(e.System))
			put(int(e.Group))
			if e.Recovered {
				put(1)
			} else {
				put(0)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("mine digest %s, want %s", got, want)
	}
}
