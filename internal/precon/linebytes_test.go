package precon

import (
	"strings"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// newRigLines is newRig with a configurable i-cache line size, for the
// prefetch-cache capacity tests.
func newRigLines(t *testing.T, im *program.Image, cfg Config, icLine int) *rig {
	t.Helper()
	r, err := buildRig(t, im, cfg, icLine, 64)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// straightLine builds a long run of ALU instructions so a region walk
// fetches lines until the prefetch cache fills.
func straightLine(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder(0x1000)
	b.Label("start")
	for i := 0; i < 400; i++ {
		b.ALUI(isa.OpAddI, 1, 1, 1)
	}
	b.Halt()
	im, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// exhaustLines drives one region to prefetch-cache exhaustion and
// returns how many lines it fetched.
func exhaustLines(t *testing.T, r *rig) uint64 {
	t.Helper()
	start, _ := r.im.Lookup("start")
	observe(r.eng, emulator.Dyn{PC: start - 4, Inst: isa.Inst{Op: isa.OpJal, Target: 0x9000}})
	r.eng.Step(400)
	st := r.eng.Stats()
	if st.RegionsExhausted != 1 {
		t.Fatalf("exhausted = %d; stats=%+v", st.RegionsExhausted, st)
	}
	return st.LinesFetched
}

// TestLineBytesTracksICache: the prefetch caches' line is the shared
// i-cache's, so the same PrefetchInstrs budget holds twice as many 32B
// lines as 64B lines.
func TestLineBytesTracksICache(t *testing.T) {
	im := straightLine(t)
	cfg := DefaultConfig()
	cfg.PrefetchInstrs = 32

	if got := exhaustLines(t, newRigLines(t, im, cfg, 64)); got != 2 {
		t.Errorf("64B lines: fetched %d, want 2 (32 instrs / 16 per line)", got)
	}
	if got := exhaustLines(t, newRigLines(t, im, cfg, 32)); got != 4 {
		t.Errorf("32B lines: fetched %d, want 4 (32 instrs / 8 per line)", got)
	}
}

// TestLineBytesTooLargeForPrefetch: a prefetch cache smaller than one
// line is a construction error, not a zero-capacity engine.
func TestLineBytesTooLargeForPrefetch(t *testing.T) {
	im := straightLine(t)
	cfg := DefaultConfig()
	cfg.PrefetchInstrs = 16 // 64 bytes < one 128B i-cache line
	_, err := buildRig(t, im, cfg, 128, 64)
	if err == nil || !strings.Contains(err.Error(), "smaller than one") {
		t.Fatalf("New = %v, want prefetch-smaller-than-line error", err)
	}
}
