package fleet

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"unsafe"
)

// TestParseSerial pins the inverse of Serial that log mining resolves
// disks with: only the exact encoding of an ID inside the fleet is
// accepted.
func TestParseSerial(t *testing.T) {
	cases := []struct {
		s      string
		n      int
		id     int
		accept bool
	}{
		{"S00000000", 100, 0, true},
		{"S0000000A", 100, 10, true},
		{"S00000063", 100, 99, true},
		{"S100000000", 1 << 33, 1 << 32, true},
		{"S00000064", 100, 0, false},              // ID 100, past len(f.Disks)
		{"S00000000", 0, 0, false},                // empty fleet
		{"S0000000a", 100, 0, false},              // lowercase hex
		{"s0000000A", 100, 0, false},              // lowercase prefix
		{"0000000A", 100, 0, false},               // missing S
		{"X0000000A", 100, 0, false},              // wrong prefix
		{"S000000A", 100, 0, false},               // 7 digits: too narrow
		{"S00000000A", 100, 0, false},             // 9 digits: non-canonical padding
		{"S0100000000", 1 << 33, 0, false},        // non-canonical padding past 8 digits
		{"SFFFFFFFFFFFFFFFF", 1 << 40, 0, false},  // would be ID -1
		{"S8000000000000000", 1 << 40, 0, false},  // would be a negative int
		{"S10000000000000000", 1 << 40, 0, false}, // 17 digits overflow uint64
		{"S-0000001", 100, 0, false},
		{"S+0000001", 100, 0, false},
		{"S 0000001", 100, 0, false},
		{"S0000000A ", 100, 0, false},
		{"S", 100, 0, false},
		{"", 100, 0, false},
	}
	for _, tc := range cases {
		id, ok := ParseSerial(tc.s, tc.n)
		if ok != tc.accept || (ok && id != tc.id) {
			t.Errorf("ParseSerial(%q, %d) = (%d, %v), want (%d, %v)", tc.s, tc.n, id, ok, tc.id, tc.accept)
		}
	}
}

// FuzzParseSerial checks ParseSerial against the historical format: s
// is accepted for a fleet of n disks exactly when Serial(id) == s for
// some id in [0, n), and then that id is returned.
func FuzzParseSerial(f *testing.F) {
	for _, s := range []string{"S00000000", "S0000000A", "S0000000a", "S00000000A",
		"S100000000", "S0100000000", "SFFFFFFFFFFFFFFFF", "NO-SUCH", ""} {
		f.Add(s, 1<<33)
		f.Add(s, 11)
	}
	f.Fuzz(func(t *testing.T, s string, n int) {
		id, ok := ParseSerial(s, n)

		// Reference: any serial of an ID is "S" plus hex, and is the
		// fmt encoding of the value those digits spell.
		want, wantOK := uint64(0), false
		if len(s) > 1 && s[0] == 'S' {
			v, err := strconv.ParseUint(s[1:], 16, 64)
			wantOK = err == nil && n > 0 && v < uint64(n) && fmt.Sprintf("S%08X", v) == s
			want = v
		}
		if ok != wantOK {
			t.Fatalf("ParseSerial(%q, %d) accept = %v, want %v", s, n, ok, wantOK)
		}
		if ok && (uint64(id) != want || Serial(id) != s) {
			t.Fatalf("ParseSerial(%q, %d) = %d, but Serial(%d) = %q", s, n, id, id, Serial(id))
		}
	})
}

// TestDiskLayout pins the disk record's memory contract: at most 64
// bytes and no pointer-bearing field, so disk slabs are allocated
// noscan and the garbage collector never walks them. A string, slice,
// map or pointer field added here would silently undo both.
func TestDiskLayout(t *testing.T) {
	if n := unsafe.Sizeof(Disk{}); n > 64 {
		t.Errorf("Disk is %d bytes, budget 64: derive the new field from the system or the ID instead", n)
	}
	if path := pointerPath(reflect.TypeOf(Disk{}), "Disk"); path != "" {
		t.Errorf("Disk holds a pointer at %s: disk slabs would be scanned by the GC", path)
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
