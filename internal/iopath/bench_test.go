// Hot-loop allocation benchmarks, run as an external test package so they
// can drive the real middleware → pipeline → server path end to end.
//
// CI's xl-smoke job parses these with -benchmem and fails the build when
// a hot loop exceeds its allocs/op ceiling (see .github/workflows/ci.yml):
// the pooled descriptors, prebuilt chain handlers, inline bindings and
// dataless servers exist precisely so the dataless cases stay ~0, and the
// byte-accurate cases are held to their own ceiling.
package iopath_test

import (
	"testing"

	"mhafs/internal/mpiio"
	"mhafs/internal/pfs"
	"mhafs/internal/units"
)

// benchSetup builds a paper-shaped cluster with one DEF file and warms
// every pool on the path (request descriptors, server in-flight
// descriptors, plan scratch, the event heap, the byte stores' chunks) so
// the measured loop sees steady state.
func benchSetup(b *testing.B, buf []byte, dataless bool) (*mpiio.FileHandle, *pfs.Cluster) {
	b.Helper()
	cfg := pfs.DefaultConfig()
	cfg.Dataless = dataless
	c, err := pfs.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mw := mpiio.New(c)
	h, err := mw.Open("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := h.WriteAt(buf, 0, nil); err != nil {
			b.Fatal(err)
		}
		c.Eng.Run()
	}
	return h, c
}

// benchHotLoop measures one 256 KB write or read per op, on a dataless
// and on a byte-accurate cluster.
func benchHotLoop(b *testing.B, write bool) {
	for _, mode := range []struct {
		name     string
		dataless bool
	}{{"dataless", true}, {"bytes", false}} {
		b.Run(mode.name, func(b *testing.B) {
			buf := make([]byte, 256*units.KB)
			h, c := benchSetup(b, buf, mode.dataless)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if write {
					err = h.WriteAt(buf, 0, nil)
				} else {
					err = h.ReadAt(buf, 0, nil)
				}
				if err != nil {
					b.Fatal(err)
				}
				c.Eng.Run()
			}
		})
	}
}

func BenchmarkHotLoopWrite(b *testing.B) { benchHotLoop(b, true) }

func BenchmarkHotLoopRead(b *testing.B) { benchHotLoop(b, false) }
