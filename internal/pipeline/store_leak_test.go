package pipeline

import (
	"testing"

	"tracepre/internal/workload"
)

// occupancy sums resident lines across whichever trace suppliers the
// configuration wired into the frontend.
func occupancy(s *Simulator) int { return s.Frontend().Occupancy() }

// TestStoreLeakInvariant is the ISSUE's leak contract: after a sweep of
// runs across the paper's configuration space, every live interned
// trace is exactly one resident cache/buffer line, and draining the
// containers (ReleaseStorage) leaves zero live traces. Run under -race
// in CI to guard the refcount paths.
func TestStoreLeakInvariant(t *testing.T) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}

	base := DefaultConfig()
	preproc := DefaultConfig().WithTraceCache(64).WithPrecon(32)
	preproc.FullTiming = true
	preproc.PreprocEnabled = true
	// The unified adaptive store needs a power-of-two total set count.
	adaptive := DefaultConfig().WithTraceCache(64).WithPrecon(64)
	adaptive.AdaptivePartition = true
	plainLRU := DefaultConfig().WithTraceCache(64).WithPrecon(32)
	plainLRU.Buffers.PlainLRU = true

	cases := []struct {
		name string
		cfg  Config
	}{
		{"tc-only", base.WithTraceCache(64)},
		{"precon", base.WithTraceCache(64).WithPrecon(32)},
		{"precon-small", base.WithTraceCache(16).WithPrecon(16)},
		{"precon-plain-lru", plainLRU},
		{"adaptive", adaptive},
		{"preproc-full-timing", preproc},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			sim := newSim(t, im, tt.cfg)
			res, err := sim.Run(60_000)
			if err != nil {
				t.Fatal(err)
			}
			occ := occupancy(sim)
			if res.Intern.Live != occ {
				t.Fatalf("%d live interned traces, %d resident lines", res.Intern.Live, occ)
			}
			if res.Intern.Live == 0 {
				t.Fatal("run left no resident traces; invariant vacuous")
			}
			if res.Intern.Interns == 0 || res.Intern.Hits == 0 {
				t.Fatalf("intern stats idle: %+v", res.Intern)
			}
			sim.ReleaseStorage()
			after := sim.fe.StoreStats()
			if after.Live != 0 {
				t.Fatalf("%d live interned traces after ReleaseStorage, want 0", after.Live)
			}
			if after.SlabBytes != res.Intern.SlabBytes {
				t.Fatalf("draining changed slab footprint: %d -> %d",
					res.Intern.SlabBytes, after.SlabBytes)
			}
		})
	}
}
