// Package units provides byte-size and rate quantities used throughout the
// simulator: parsing ("64KB", "1.5MiB"), formatting, and arithmetic on
// bandwidths expressed as seconds-per-byte, the form the cost model of the
// MHA paper (Table I) uses for its β and t parameters.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Common power-of-two byte sizes. The paper's stripe sizes, request sizes
// and search steps are all expressed in these units (4KB step, 64KB default
// stripe, and so on).
const (
	B  int64 = 1
	KB int64 = 1 << 10
	MB int64 = 1 << 20
	GB int64 = 1 << 30
	TB int64 = 1 << 40
)

// Bytes is a byte count with human-friendly formatting.
type Bytes int64

// String renders b using the largest unit that divides it exactly where
// possible, falling back to a two-decimal representation.
func (b Bytes) String() string {
	n := int64(b)
	neg := ""
	if n < 0 {
		neg = "-"
		n = -n
	}
	switch {
	case n >= TB && n%TB == 0:
		return fmt.Sprintf("%s%dTB", neg, n/TB)
	case n >= GB && n%GB == 0:
		return fmt.Sprintf("%s%dGB", neg, n/GB)
	case n >= MB && n%MB == 0:
		return fmt.Sprintf("%s%dMB", neg, n/MB)
	case n >= KB && n%KB == 0:
		return fmt.Sprintf("%s%dKB", neg, n/KB)
	case n >= TB:
		return fmt.Sprintf("%s%.2fTB", neg, float64(n)/float64(TB))
	case n >= GB:
		return fmt.Sprintf("%s%.2fGB", neg, float64(n)/float64(GB))
	case n >= MB:
		return fmt.Sprintf("%s%.2fMB", neg, float64(n)/float64(MB))
	case n >= KB:
		return fmt.Sprintf("%s%.2fKB", neg, float64(n)/float64(KB))
	default:
		return fmt.Sprintf("%s%dB", neg, n)
	}
}

// ParseBytes parses strings such as "64KB", "1.5MB", "4096", "16GiB".
// Units are binary (KB == KiB == 1024 bytes), matching the paper's usage.
func ParseBytes(s string) (Bytes, error) {
	orig := s
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("units: empty byte size")
	}
	neg := false
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		s = s[1:]
	}
	// Split numeric prefix from unit suffix.
	i := 0
	for i < len(s) && (s[i] == '.' || (s[i] >= '0' && s[i] <= '9')) {
		i++
	}
	numStr, unit := s[:i], strings.TrimSpace(s[i:])
	if numStr == "" {
		return 0, fmt.Errorf("units: no digits in %q", orig)
	}
	mult, err := unitMultiplier(unit)
	if err != nil {
		return 0, fmt.Errorf("units: %q: %w", orig, err)
	}
	if !strings.Contains(numStr, ".") {
		n, err := strconv.ParseInt(numStr, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("units: %q: %w", orig, err)
		}
		v := n * mult
		if n != 0 && v/n != mult {
			return 0, fmt.Errorf("units: %q overflows int64", orig)
		}
		if neg {
			v = -v
		}
		return Bytes(v), nil
	}
	f, err := strconv.ParseFloat(numStr, 64)
	if err != nil {
		return 0, fmt.Errorf("units: %q: %w", orig, err)
	}
	product := f * float64(mult)
	// float64(MaxInt64) rounds to 2^63, which is itself out of range, so
	// the comparison must be >= rather than >.
	if product >= float64(math.MaxInt64) {
		return 0, fmt.Errorf("units: %q overflows int64", orig)
	}
	v := int64(product)
	if neg {
		v = -v
	}
	return Bytes(v), nil
}

func unitMultiplier(unit string) (int64, error) {
	switch strings.ToUpper(unit) {
	case "", "B":
		return B, nil
	case "K", "KB", "KIB":
		return KB, nil
	case "M", "MB", "MIB":
		return MB, nil
	case "G", "GB", "GIB":
		return GB, nil
	case "T", "TB", "TIB":
		return TB, nil
	default:
		return 0, fmt.Errorf("unknown unit %q", unit)
	}
}

// SecPerByte expresses a transfer speed as seconds per byte, the unit of the
// cost model's β and t parameters. It is the reciprocal of a bandwidth.
type SecPerByte float64

// PerByteFromMBps converts a bandwidth in MB/s (binary MB) into seconds per
// byte.
func PerByteFromMBps(mbps float64) SecPerByte {
	if mbps <= 0 {
		return 0
	}
	return SecPerByte(1.0 / (mbps * float64(MB)))
}

// MBps converts back to MB/s for reporting.
func (p SecPerByte) MBps() float64 {
	if p <= 0 {
		return 0
	}
	return 1.0 / (float64(p) * float64(MB))
}

// Seconds returns the transfer time for n bytes at this per-byte rate.
func (p SecPerByte) Seconds(n int64) float64 {
	return float64(p) * float64(n)
}

// BandwidthMBps reports bytes/seconds as MB/s (binary MB); it returns 0 for
// non-positive durations.
func BandwidthMBps(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / float64(MB) / seconds
}

// End returns the exclusive end off+n of an extent, panicking on int64
// overflow instead of silently wrapping into a negative offset. Both
// arguments must be non-negative, which every validated extent in the
// tree guarantees.
func End(off, n int64) int64 {
	if off < 0 || n < 0 {
		panic(fmt.Sprintf("units: negative extent [%d,+%d)", off, n))
	}
	if off > math.MaxInt64-n {
		panic(fmt.Sprintf("units: extent end %d+%d overflows int64", off, n))
	}
	return off + n
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("units: CeilDiv by non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// RoundUp rounds n up to the next multiple of step (step > 0).
func RoundUp(n, step int64) int64 {
	return CeilDiv(n, step) * step
}

// RoundDown rounds n down to a multiple of step (step > 0).
func RoundDown(n, step int64) int64 {
	if step <= 0 {
		panic("units: RoundDown by non-positive step")
	}
	if n <= 0 {
		return 0
	}
	return n - n%step
}

// Min returns the smaller of a and b.
func Min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
