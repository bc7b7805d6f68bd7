package server

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"mhafs/internal/device"
	"mhafs/internal/netmodel"
	"mhafs/internal/sim"
	"mhafs/internal/trace"
)

func TestByteStoreReadWrite(t *testing.T) {
	b := NewByteStore(16)
	data := []byte("hello, parallel file system")
	b.WriteAt(data, 5)
	got := make([]byte, len(data))
	b.ReadAt(got, 5)
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q", got)
	}
	if b.Size() != 5+int64(len(data)) {
		t.Errorf("Size = %d", b.Size())
	}
}

func TestByteStoreSparseZeros(t *testing.T) {
	b := NewByteStore(16)
	b.WriteAt([]byte{0xFF}, 100)
	got := make([]byte, 10)
	b.ReadAt(got, 0)
	for i, v := range got {
		if v != 0 {
			t.Errorf("unwritten byte %d = %d", i, v)
		}
	}
}

func TestByteStoreCrossChunk(t *testing.T) {
	b := NewByteStore(8)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	b.WriteAt(data, 3) // spans 9 chunks
	got := make([]byte, 64)
	b.ReadAt(got, 3)
	if !bytes.Equal(got, data) {
		t.Error("cross-chunk round trip failed")
	}
}

func TestByteStoreOverwrite(t *testing.T) {
	b := NewByteStore(16)
	b.WriteAt([]byte("aaaa"), 0)
	b.WriteAt([]byte("bb"), 1)
	got := make([]byte, 4)
	b.ReadAt(got, 0)
	if string(got) != "abba" {
		t.Errorf("got %q", got)
	}
}

func TestByteStoreDefaultChunk(t *testing.T) {
	b := NewByteStore(0)
	b.WriteAt([]byte{1}, 0)
	if b.StoredBytes() != DefaultChunkSize {
		t.Errorf("StoredBytes = %d", b.StoredBytes())
	}
}

func TestByteStoreReset(t *testing.T) {
	b := NewByteStore(16)
	b.WriteAt([]byte{1, 2, 3}, 0)
	b.Reset()
	if b.Size() != 0 || b.StoredBytes() != 0 {
		t.Error("Reset did not clear")
	}
	got := make([]byte, 3)
	b.ReadAt(got, 0)
	if got[0] != 0 {
		t.Error("data survived Reset")
	}
}

func TestByteStorePanics(t *testing.T) {
	b := NewByteStore(16)
	for _, fn := range []func(){
		func() { b.WriteAt([]byte{1}, -1) },
		func() { b.ReadAt(make([]byte, 1), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic for negative offset")
				}
			}()
			fn()
		}()
	}
}

// Property: write-then-read round trips for arbitrary offsets and data.
func TestByteStoreRoundTripQuick(t *testing.T) {
	f := func(offRaw uint16, data []byte) bool {
		b := NewByteStore(32)
		off := int64(offRaw)
		b.WriteAt(data, off)
		got := make([]byte, len(data))
		b.ReadAt(got, off)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func newTestServer(t *testing.T, eng *sim.Engine) *Server {
	t.Helper()
	s, err := New(eng, "h0", device.DefaultHDD(), netmodel.DefaultGigE())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// doneFunc adapts a completion func to Done; a nil func ignores the
// completion.
type doneFunc func(end float64, err error)

func (f doneFunc) IODone(end float64, err error) {
	if f != nil {
		f(end, err)
	}
}

// submit sends a byte-accurate sub-request carrying p at local offset
// local of object "f".
func submit(s *Server, op trace.Op, local int64, p []byte, done doneFunc) {
	s.Submit(Sub{Op: op, Object: "f", Local: local, Bytes: int64(len(p)), Payload: p, Done: done})
}

func TestServerNewValidates(t *testing.T) {
	var eng sim.Engine
	if _, err := New(&eng, "bad", device.Model{}, netmodel.DefaultGigE()); err == nil {
		t.Error("invalid device accepted")
	}
	if _, err := New(&eng, "bad", device.DefaultHDD(), netmodel.Model{}); err == nil {
		t.Error("invalid network accepted")
	}
}

func TestServerWriteReadRoundTrip(t *testing.T) {
	var eng sim.Engine
	s := newTestServer(t, &eng)
	data := []byte("stripe data")
	var wrote, read bool
	submit(s, trace.OpWrite, 100, data, func(float64, error) { wrote = true })
	buf := make([]byte, len(data))
	submit(s, trace.OpRead, 100, buf, func(float64, error) { read = true })
	eng.Run()
	if !wrote || !read {
		t.Fatal("callbacks did not run")
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("read %q", buf)
	}
}

func TestServerServiceTimeMatchesModels(t *testing.T) {
	var eng sim.Engine
	s := newTestServer(t, &eng)
	n := int64(1 << 20)
	want := s.Dev.ServiceTime(trace.OpRead, n) + s.Net.TransferTime(n)
	if got := s.ServiceTime(trace.OpRead, n); math.Abs(got-want) > 1e-15 {
		t.Errorf("ServiceTime = %v, want %v", got, want)
	}
	if s.ServiceTime(trace.OpRead, 0) != 0 {
		t.Error("zero bytes should cost 0")
	}
}

func TestServerFIFOTiming(t *testing.T) {
	var eng sim.Engine
	s := newTestServer(t, &eng)
	n := int64(64 << 10)
	per := s.ServiceTime(trace.OpWrite, n)
	var ends []float64
	for i := 0; i < 3; i++ {
		submit(s, trace.OpWrite, int64(i)*n, make([]byte, n), func(end float64, _ error) { ends = append(ends, end) })
	}
	eng.Run()
	// Request i arrives with i requests already queued, paying i steps of
	// HDD seek interference on top of the base service time.
	want := 0.0
	for i, end := range ends {
		want += per + float64(i)*s.Dev.SeekInterference
		if math.Abs(end-want) > 1e-12 {
			t.Errorf("request %d ended at %v, want %v", i, end, want)
		}
	}
}

func TestServerCallerBufferReuse(t *testing.T) {
	var eng sim.Engine
	s := newTestServer(t, &eng)
	buf := []byte("first")
	submit(s, trace.OpWrite, 0, buf, nil)
	copy(buf, "XXXXX") // caller reuses buffer before virtual completion
	eng.Run()
	got := make([]byte, 5)
	s.Object("f").ReadAt(got, 0)
	if string(got) != "first" {
		t.Errorf("stored %q; a byte-accurate write must copy", got)
	}
}

func TestServerStats(t *testing.T) {
	var eng sim.Engine
	s := newTestServer(t, &eng)
	submit(s, trace.OpWrite, 0, make([]byte, 1000), nil)
	submit(s, trace.OpRead, 0, make([]byte, 400), nil)
	eng.Run()
	st := s.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Errorf("ops = %d/%d", st.Reads, st.Writes)
	}
	if st.WriteBytes != 1000 || st.ReadBytes != 400 {
		t.Errorf("bytes = %d/%d", st.ReadBytes, st.WriteBytes)
	}
	// The read arrives while the write is queued, paying one step of seek
	// interference.
	wantBusy := s.ServiceTime(trace.OpWrite, 1000) + s.ServiceTime(trace.OpRead, 400) + s.Dev.SeekInterference
	if math.Abs(st.BusyTime-wantBusy) > 1e-12 {
		t.Errorf("BusyTime = %v, want %v", st.BusyTime, wantBusy)
	}
	if st.Kind != device.HDD {
		t.Errorf("Kind = %v", st.Kind)
	}
}

func TestSSDServerFasterThanHDD(t *testing.T) {
	var eng sim.Engine
	h := newTestServer(t, &eng)
	ssd, err := New(&eng, "s0", device.DefaultSSD(), netmodel.DefaultGigE())
	if err != nil {
		t.Fatal(err)
	}
	n := int64(256 << 10)
	if !(ssd.ServiceTime(trace.OpRead, n) < h.ServiceTime(trace.OpRead, n)) {
		t.Error("SServer should service the same sub-request faster than HServer")
	}
}

// TestSubmitPayloadMustMatchBytes: a byte-storing server refuses a
// payload whose length disagrees with the declared byte count; a
// dataless one ignores the payload entirely.
func TestSubmitPayloadMustMatchBytes(t *testing.T) {
	var eng sim.Engine
	s := newTestServer(t, &eng)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched payload accepted by a byte-storing server")
			}
		}()
		s.Submit(Sub{Op: trace.OpWrite, Object: "f", Bytes: 8, Payload: make([]byte, 4), Done: doneFunc(nil)})
	}()
	s.SetDataless(true)
	s.Submit(Sub{Op: trace.OpWrite, Object: "f", Bytes: 8, Done: doneFunc(nil)})
	eng.Run()
	if st := s.Stats(); st.Writes != 1 || st.WriteBytes != 8 {
		t.Errorf("dataless stats = %+v, want one 8-byte write", st)
	}
}
