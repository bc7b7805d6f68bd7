package units

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"0", 0},
		{"1", 1},
		{"4096", 4096},
		{"64KB", 64 * Bytes(KB)},
		{"64kb", 64 * Bytes(KB)},
		{"64 KB", 64 * Bytes(KB)},
		{"64KiB", 64 * Bytes(KB)},
		{"1MB", Bytes(MB)},
		{"1.5MB", Bytes(MB) + Bytes(MB)/2},
		{"16GB", 16 * Bytes(GB)},
		{"2TB", 2 * Bytes(TB)},
		{"128B", 128},
		{"-4KB", -4 * Bytes(KB)},
		{"+4KB", 4 * Bytes(KB)},
		{"0.5KB", 512},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): unexpected error %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	for _, in := range []string{"", "KB", "12XB", "1.2.3KB", "--3", "9223372036854775807KB"} {
		if _, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q): want error, got nil", in)
		}
	}
}

// TestParseBytesOverflow pins both overflow guards: the integer path
// (n*mult wraps) and the float path (f*mult exceeds int64 range, where
// the naive int64(f*mult) conversion would silently produce MinInt64).
func TestParseBytesOverflow(t *testing.T) {
	for _, in := range []string{
		"9223372036854775807KB", // integer path: 2^63-1 KB wraps
		"9007199254740993TB",    // integer path again, TB-scale
		"9999999999.5TB",        // float path: product far beyond int64
		"8388608.1TB",           // float path: just past 2^63
	} {
		if got, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want overflow error", in, got)
		}
	}
	// The largest representable whole value must still parse.
	if got, err := ParseBytes("9223372036854775807"); err != nil || got != math.MaxInt64 {
		t.Errorf("ParseBytes(MaxInt64) = %d, %v; want %d, nil", got, err, int64(math.MaxInt64))
	}
	// A fractional value close to, but inside, the limit must not error.
	if _, err := ParseBytes("8388607.5TB"); err != nil {
		t.Errorf("ParseBytes(8388607.5TB): unexpected error %v", err)
	}
}

// TestParseBytesFractional pins the truncation semantics of fractional
// sizes: the product is truncated toward zero, not rounded.
func TestParseBytesFractional(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
	}{
		{"1.5MB", Bytes(MB + MB/2)},
		{"0.25KB", 256},
		{"2.75GB", Bytes(2*GB + 3*GB/4)},
		{"0.0001KB", 0}, // truncates to zero bytes
		{"-1.5KB", -1536},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): unexpected error %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestStringParseRoundTrip re-parses String's output across all of its
// formatting branches, including the two-decimal fallback forms, whose
// re-parse may truncate but must stay within the rendered precision.
func TestStringParseRoundTrip(t *testing.T) {
	exact := []Bytes{0, 1, 512, Bytes(KB), 3 * Bytes(KB), Bytes(MB),
		17 * Bytes(MB), Bytes(GB), Bytes(TB), -64 * Bytes(KB)}
	for _, v := range exact {
		got, err := ParseBytes(v.String())
		if err != nil || got != v {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", v.String(), got, err, v)
		}
	}
	inexact := []Bytes{Bytes(KB) + 512, Bytes(MB) + 1, Bytes(GB) + Bytes(MB), -Bytes(KB) - 512}
	for _, v := range inexact {
		s := v.String()
		got, err := ParseBytes(s)
		if err != nil {
			t.Errorf("ParseBytes(%q): unexpected error %v", s, err)
			continue
		}
		// Two decimals of the rendered unit bound the representation error.
		diff := got - v
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.01*math.Abs(float64(v)) {
			t.Errorf("ParseBytes(%q) = %d, too far from %d", s, got, v)
		}
	}
}

func TestEnd(t *testing.T) {
	cases := []struct {
		off, n, want int64
	}{
		{0, 0, 0},
		{0, 5, 5},
		{64 * KB, 4 * KB, 68 * KB},
		{math.MaxInt64 - 1, 1, math.MaxInt64},
	}
	for _, c := range cases {
		if got := End(c.off, c.n); got != c.want {
			t.Errorf("End(%d, %d) = %d, want %d", c.off, c.n, got, c.want)
		}
	}
}

func TestEndPanics(t *testing.T) {
	cases := []struct {
		name   string
		off, n int64
	}{
		{"negative offset", -1, 4},
		{"negative length", 4, -1},
		{"overflow", math.MaxInt64, 1},
		{"overflow both large", math.MaxInt64 / 2, math.MaxInt64/2 + 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("End(%d, %d): want panic", c.off, c.n)
				}
			}()
			End(c.off, c.n)
		})
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{Bytes(KB), "1KB"},
		{64 * Bytes(KB), "64KB"},
		{Bytes(MB), "1MB"},
		{Bytes(GB), "1GB"},
		{Bytes(TB), "1TB"},
		{Bytes(KB) + 512, "1.50KB"},
		{-64 * Bytes(KB), "-64KB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// Round-trip property: formatting an exact multiple and re-parsing it yields
// the same value.
func TestBytesRoundTripQuick(t *testing.T) {
	f := func(kb uint16) bool {
		v := Bytes(int64(kb)) * Bytes(KB)
		got, err := ParseBytes(v.String())
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerByteFromMBps(t *testing.T) {
	p := PerByteFromMBps(100)
	// 100MB at 100MB/s should take 1 second.
	if got := p.Seconds(100 * MB); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Seconds(100MB) = %v, want 1.0", got)
	}
	if got := p.MBps(); math.Abs(got-100) > 1e-9 {
		t.Errorf("MBps() = %v, want 100", got)
	}
	if PerByteFromMBps(0) != 0 {
		t.Error("PerByteFromMBps(0) should be 0")
	}
	if SecPerByte(0).MBps() != 0 {
		t.Error("SecPerByte(0).MBps() should be 0")
	}
}

func TestBandwidthMBps(t *testing.T) {
	if got := BandwidthMBps(100*MB, 2); math.Abs(got-50) > 1e-9 {
		t.Errorf("BandwidthMBps = %v, want 50", got)
	}
	if got := BandwidthMBps(100, 0); got != 0 {
		t.Errorf("BandwidthMBps with zero time = %v, want 0", got)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 4, 0},
		{1, 4, 1},
		{4, 4, 1},
		{5, 4, 2},
		{-3, 4, 0},
		{8, 3, 3},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(1,0): want panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestRounding(t *testing.T) {
	if got := RoundUp(5, 4); got != 8 {
		t.Errorf("RoundUp(5,4) = %d, want 8", got)
	}
	if got := RoundUp(8, 4); got != 8 {
		t.Errorf("RoundUp(8,4) = %d, want 8", got)
	}
	if got := RoundDown(5, 4); got != 4 {
		t.Errorf("RoundDown(5,4) = %d, want 4", got)
	}
	if got := RoundDown(-1, 4); got != 0 {
		t.Errorf("RoundDown(-1,4) = %d, want 0", got)
	}
}

func TestRoundingInvariantsQuick(t *testing.T) {
	f := func(n uint32, stepRaw uint8) bool {
		step := int64(stepRaw%63) + 1
		v := int64(n)
		up, down := RoundUp(v, step), RoundDown(v, step)
		return up%step == 0 && down%step == 0 && up >= v && down <= v && up-down < 2*step
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxClamp(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min wrong")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max wrong")
	}
}

func ExampleParseBytes() {
	b, _ := ParseBytes("64KB")
	fmt.Println(int64(b), b)
	// Output: 65536 64KB
}
