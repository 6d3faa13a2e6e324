package fleet

import "strconv"

// Disk serials are "S" followed by the disk's fleet ID in uppercase hex,
// zero-padded to at least 8 digits — the historical fmt.Sprintf("S%08X",
// id) format. A serial is a pure function of the disk ID, so the fleet
// stores none: Serial derives one on demand, AppendSerial writes one
// into a caller's buffer, and ParseSerial inverts the encoding for log
// mining.

const serialHexDigits = "0123456789ABCDEF"

// serialLen returns len(Serial(id)): 1 for the "S" prefix plus the
// zero-padded hex width. IDs below 2^32 — every fleet built at any
// feasible scale — encode in exactly 9 bytes; wider IDs widen the field
// just as %X would.
//
//detlint:hotpath
func serialLen(id int) int {
	n := 1
	for v := uint64(id); v > 0xF; v >>= 4 {
		n++
	}
	if n < 8 {
		n = 8
	}
	return n + 1
}

// AppendSerial appends the serial for the given non-negative disk ID to
// dst and returns the extended slice. It allocates only if dst lacks
// capacity.
//
//detlint:hotpath
func AppendSerial(dst []byte, id int) []byte {
	digits := serialLen(id) - 1
	dst = append(dst, 'S')
	for i := digits - 1; i >= 0; i-- {
		dst = append(dst, serialHexDigits[(uint64(id)>>(4*uint(i)))&0xF])
	}
	return dst
}

// Serial returns the serial of the disk with the given non-negative ID.
func Serial(id int) string {
	var buf [24]byte
	return string(AppendSerial(buf[:0], id))
}

// ParseSerial returns the ID of the disk whose serial is s in a fleet of
// n disks. It accepts s exactly when Serial(id) == s for some ID in
// [0, n), so lowercase hex, a missing "S", non-canonical zero padding
// and IDs outside the fleet are all rejected.
func ParseSerial(s string, n int) (id int, ok bool) {
	if len(s) < 2 || s[0] != 'S' {
		return 0, false
	}
	v, err := strconv.ParseUint(s[1:], 16, 64)
	if err != nil || n <= 0 || v >= uint64(n) {
		return 0, false
	}
	var buf [24]byte
	if string(AppendSerial(buf[:0], int(v))) != s {
		return 0, false
	}
	return int(v), true
}
