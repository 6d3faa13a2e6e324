package failmodel

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"storagesubsys/internal/fleet"
	"storagesubsys/internal/stats"
)

func TestCauseTypeMapping(t *testing.T) {
	wantType := map[Cause]FailureType{
		CauseDiskMedia: DiskFailure, CauseDiskMechanical: DiskFailure, CauseDiskEnv: DiskFailure,
		CauseCable: PhysicalInterconnect, CauseHBAPort: PhysicalInterconnect,
		CauseBackplane: PhysicalInterconnect, CauseShelfPower: PhysicalInterconnect,
		CauseSharedHBA: PhysicalInterconnect,
		CauseDriverBug: Protocol, CauseFirmwareIncompat: Protocol,
		CauseSlowIO: Performance, CauseRecoveryLoad: Performance,
	}
	for cause, want := range wantType {
		if got := cause.Type(); got != want {
			t.Errorf("%s.Type() = %s, want %s", cause, got, want)
		}
	}
}

func TestPathRecoverable(t *testing.T) {
	// Only cable and HBA-port faults are absorbed by a second path; the
	// paper's Section 4.3 explains backplane and shared-HBA faults are
	// not.
	recoverable := map[Cause]bool{
		CauseCable:     true,
		CauseHBAPort:   true,
		CauseBackplane: false, CauseShelfPower: false, CauseSharedHBA: false,
		CauseDiskMedia: false, CauseDriverBug: false, CauseSlowIO: false,
	}
	for cause, want := range recoverable {
		if got := cause.PathRecoverable(); got != want {
			t.Errorf("%s.PathRecoverable() = %v, want %v", cause, got, want)
		}
	}
}

func TestEventVisibility(t *testing.T) {
	if !(Event{}).Visible() {
		t.Error("events are visible by default")
	}
	if (Event{Recovered: true}).Visible() {
		t.Error("recovered events must not be visible")
	}
}

func TestBurstSizeExpectation(t *testing.T) {
	r := stats.NewRNG(1)
	for _, b := range []BurstSize{
		{SingletonProb: 1, ExtraMean: 5},
		{SingletonProb: 0.45, ExtraMean: 1},
		{SingletonProb: 0, ExtraMean: 2},
	} {
		const n = 200000
		sum := 0.0
		minSeen := math.MaxInt32
		for i := 0; i < n; i++ {
			k := b.Sample(r)
			if k < 1 {
				t.Fatalf("burst size %d < 1", k)
			}
			if k < minSeen {
				minSeen = k
			}
			sum += float64(k)
		}
		want := b.Expected()
		if got := sum / n; math.Abs(got-want)/want > 0.02 {
			t.Errorf("BurstSize%+v: mean %g, want %g", b, got, want)
		}
	}
}

func TestDefaultParamsCalibration(t *testing.T) {
	p := DefaultParams()

	// Every catalog model has a disk AFR; SATA ~1.9%, FC < 0.9% except
	// family H (Findings 2, 3).
	var sataSum float64
	var sataN int
	var models []fleet.DiskModel
	for _, prof := range fleet.DefaultProfiles() {
		for _, c := range prof.Configs {
			if !slices.Contains(models, c.Disk) {
				models = append(models, c.Disk)
			}
		}
	}
	for _, m := range models {
		afr, ok := p.DiskAFR[m]
		if !ok {
			t.Fatalf("model %s missing from DiskAFR", m)
		}
		switch {
		case m.Type == fleet.SATA:
			sataSum += afr
			sataN++
			if afr < 0.015 || afr > 0.025 {
				t.Errorf("SATA model %s AFR %g outside near-line band", m, afr)
			}
		case m.Family == fleet.ProblemFamily:
			if afr < 0.014 {
				t.Errorf("problem family model %s should be elevated, AFR %g", m, afr)
			}
		default:
			if afr >= 0.009 {
				t.Errorf("FC model %s AFR %g, paper says consistently below 0.9%%", m, afr)
			}
		}
	}
	if avg := sataSum / float64(sataN); math.Abs(avg-0.019) > 0.002 {
		t.Errorf("SATA average AFR %g, want ~1.9%%", avg)
	}

	// Figure 7 calibration: recoverable shares 0.50 (mid) and 0.58 (high).
	if got := p.PICauseWeights[fleet.MidRange].RecoverableFraction(); math.Abs(got-0.50) > 0.01 {
		t.Errorf("mid-range recoverable fraction %g, want 0.50", got)
	}
	if got := p.PICauseWeights[fleet.HighEnd].RecoverableFraction(); math.Abs(got-0.58) > 0.01 {
		t.Errorf("high-end recoverable fraction %g, want 0.58", got)
	}

	// Figure 7 PI targets.
	if p.PIBaseAFR[fleet.MidRange] != 0.0182 {
		t.Errorf("mid-range single-path PI AFR %g, paper says 1.82%%", p.PIBaseAFR[fleet.MidRange])
	}
	if p.PIBaseAFR[fleet.HighEnd] != 0.0213 {
		t.Errorf("high-end single-path PI AFR %g, paper says 2.13%%", p.PIBaseAFR[fleet.HighEnd])
	}

	// Figure 6 interop table: B wins for A-2, A wins for A-3/D-2/D-3.
	a2A := p.PIRate(fleet.LowEnd, fleet.ShelfA, fleet.DiskA2)
	a2B := p.PIRate(fleet.LowEnd, fleet.ShelfB, fleet.DiskA2)
	if !(a2B < a2A) {
		t.Error("shelf B should beat shelf A for disk A-2")
	}
	for _, m := range []fleet.DiskModel{fleet.DiskA3, fleet.DiskD2, fleet.DiskD3} {
		if !(p.PIRate(fleet.LowEnd, fleet.ShelfA, m) < p.PIRate(fleet.LowEnd, fleet.ShelfB, m)) {
			t.Errorf("shelf A should beat shelf B for disk %s", m)
		}
	}
}

func TestRateArithmetic(t *testing.T) {
	p := DefaultParams()

	// Disk base rate + env contribution = model AFR.
	for _, m := range []fleet.DiskModel{fleet.DiskA2, fleet.DiskI1, fleet.DiskH1} {
		envContribution := p.EnvEpisodeRate * p.EnvHitProb(m)
		total := p.DiskBaseRate(m) + envContribution
		if math.Abs(total-p.DiskAFR[m])/p.DiskAFR[m] > 1e-9 {
			t.Errorf("model %s: base %g + env %g != AFR %g", m, p.DiskBaseRate(m), envContribution, p.DiskAFR[m])
		}
	}

	// Family multipliers.
	base := p.ProtoRate(fleet.LowEnd, fleet.DiskA2)
	h := p.ProtoRate(fleet.LowEnd, fleet.DiskH2)
	if math.Abs(h/base-2.5) > 1e-9 {
		t.Errorf("family H protocol multiplier: %g", h/base)
	}
	if mult := p.PerfRate(fleet.LowEnd, fleet.DiskH2) / p.PerfRate(fleet.LowEnd, fleet.DiskA2); math.Abs(mult-2.0) > 1e-9 {
		t.Errorf("family H performance multiplier: %g", mult)
	}
}

func TestUnknownModelFallback(t *testing.T) {
	p := DefaultParams()
	unknown := fleet.DiskModel{Family: "Z", Capacity: 1, Type: fleet.SATA}
	if rate := p.DiskBaseRate(unknown); rate <= 0 {
		t.Error("unknown SATA model should fall back to the technology average")
	}
	unknownFC := fleet.DiskModel{Family: "Z", Capacity: 1, Type: fleet.FC}
	if p.DiskBaseRate(unknownFC) >= p.DiskBaseRate(unknown) {
		t.Error("FC fallback should be below SATA fallback")
	}
}

// TestDefaultParamsAreIndependent: every DefaultParams call returns its
// own maps and slices, so a scenario or test may scale or overwrite the
// result without touching any other caller's parameters.
func TestDefaultParamsAreIndependent(t *testing.T) {
	p := DefaultParams()
	q := DefaultParams()
	q.DiskAFR[fleet.DiskA2] = 0.5
	q.PIBaseAFR[fleet.MidRange] = 0.5
	q.PIInterop[InteropKey{fleet.LowEnd, fleet.ShelfA, fleet.DiskA2}] = 0.5
	q.ProtoAFR[fleet.LowEnd] = 0.5
	q.PerfFamilyMult["H"] = 9
	q.PICauseWeights[fleet.MidRange].Weights[0] = 99
	if p.DiskAFR[fleet.DiskA2] == 0.5 ||
		p.PIBaseAFR[fleet.MidRange] == 0.5 ||
		p.PIInterop[InteropKey{fleet.LowEnd, fleet.ShelfA, fleet.DiskA2}] == 0.5 ||
		p.ProtoAFR[fleet.LowEnd] == 0.5 ||
		p.PerfFamilyMult["H"] == 9 ||
		p.PICauseWeights[fleet.MidRange].Weights[0] == 99 {
		t.Error("DefaultParams results must not share maps or slices")
	}
}

func TestTypeStrings(t *testing.T) {
	if DiskFailure.String() != "Disk Failure" ||
		PhysicalInterconnect.String() != "Physical Interconnect Failure" ||
		Protocol.String() != "Protocol Failure" ||
		Performance.String() != "Performance Failure" {
		t.Error("failure type names must match the paper")
	}
	shorts := map[FailureType]string{
		DiskFailure: "disk", PhysicalInterconnect: "interconnect",
		Protocol: "protocol", Performance: "performance",
	}
	for ft, want := range shorts {
		if ft.Short() != want {
			t.Errorf("%v.Short() = %q", ft, ft.Short())
		}
	}
	if len(Types) != 4 {
		t.Error("the paper defines four failure types")
	}
}

// TestEventLayout pins the event log's memory contract: an event is at
// most 40 bytes and holds no pointer-bearing field, so a trial's event
// buffer is allocated noscan and the garbage collector never walks it.
// A string, slice, map or pointer field added to Event, or an ID or enum
// widened back to int, would silently undo that.
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 40 {
		t.Errorf("Event is %d bytes, budget 40: keep IDs int32 and enums uint8, or derive the new field from the fleet", n)
	}
	typ := reflect.TypeOf(Event{})
	if path := pointerPath(typ, typ.Name()); path != "" {
		t.Errorf("Event holds a pointer at %s: every event buffer would be scanned by the GC", path)
	}
}

// pointerPath returns the path to the first component of t whose
// representation contains a pointer, or "" if there is none.
func pointerPath(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		if t.Len() == 0 {
			return ""
		}
		return pointerPath(t.Elem(), path+"[0]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return path + " (" + t.Kind().String() + ")"
	}
	return ""
}
