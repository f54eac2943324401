package harness

import (
	"context"
	"reflect"
	"testing"

	"tracepre/internal/emulator"
	"tracepre/internal/pipeline"
	"tracepre/internal/workload"
)

const testBudget uint64 = 200_000

func baseline(tc int) pipeline.Config { return pipeline.DefaultConfig().WithTraceCache(tc) }

func precon(tc, pb int) pipeline.Config {
	return pipeline.DefaultConfig().WithTraceCache(tc).WithPrecon(pb)
}

// TestReplayEquivalence asserts the determinism guarantee behind
// record-once/replay-many: for every benchmark profile, a cell run by
// the harness's group driver from the shared stream cache produces a
// Result identical to pipeline.Simulator.Run recording and replaying
// its own stream — for both the plain miss-rate machine and the
// full-timing preconstruction+preprocessing machine.
func TestReplayEquivalence(t *testing.T) {
	timing := precon(128, 128)
	timing.FullTiming = true
	timing.PreprocEnabled = true
	configs := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"baseline", baseline(256)},
		{"precon+timing", timing},
	}
	for _, bench := range []string{"gcc", "go", "vortex", "perl", "li", "m88ksim", "ijpeg", "compress"} {
		for _, c := range configs {
			t.Run(bench+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				im, err := ImageSeed(bench, 0)
				if err != nil {
					t.Fatal(err)
				}
				sim, err := pipeline.New(im, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				direct, err := sim.Run(testBudget)
				if err != nil {
					t.Fatal(err)
				}
				shared := cellAlone(t, &Cell{Bench: bench, Point: ConfigPoint{Name: c.name, Cfg: c.cfg}}, testBudget).Result
				if !reflect.DeepEqual(direct, shared) {
					t.Errorf("group-driver Result differs from Simulator.Run:\nrun   %+v\ngroup %+v",
						direct, shared)
				}
			})
		}
	}
}

func TestStreamCacheLRU(t *testing.T) {
	c := newStreamCache(1) // absurdly small: at most one resident stream
	for _, name := range []string{"compress", "li"} {
		im, err := ImageSeed(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.get(streamKey{name: name, budget: 10_000}, im); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.lru.Len(); n != 1 {
		t.Errorf("cache kept %d streams under a 1-byte cap, want 1 (newest)", n)
	}
	// The resident stream must be the most recently recorded one.
	if e := c.lru.Front().Value.(*streamEntry); e.key.name != "li" {
		t.Errorf("resident stream is %q, want li", e.key.name)
	}
	// Re-demanding the evicted stream re-records it.
	im, err := ImageSeed("compress", 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.get(streamKey{name: "compress", budget: 10_000}, im)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Error("re-recorded stream is empty")
	}
}

func TestStreamCacheSharesRecordings(t *testing.T) {
	ResetStreamCache()
	defer ResetStreamCache()
	cellAlone(t, &Cell{Bench: "li", Point: ConfigPoint{Name: "base", Cfg: baseline(64)}}, 20_000)
	cellAlone(t, &Cell{Bench: "li", Point: ConfigPoint{Name: "pb64", Cfg: precon(64, 64)}}, 20_000)
	entries, bytes := StreamCacheStats()
	if entries != 1 {
		t.Errorf("two configs recorded %d streams, want 1 shared", entries)
	}
	if bytes <= 0 {
		t.Errorf("cache reports %d bytes, want > 0", bytes)
	}
}

// TestSweepReplaysWarmStreams checks a sweep's groups replay the
// streams its own warm-up recorded instead of looking them up again:
// with the cache emptied between warm-up and the groups (as eviction
// does when a sweep's streams overflow the cap), the groups must not
// record any stream a second time.
func TestSweepReplaysWarmStreams(t *testing.T) {
	ResetStreamCache()
	defer ResetStreamCache()
	m := Matrix{
		Name:    "warm-replay",
		Benches: []string{"compress", "li"},
		Budget:  20_000,
		Points:  []ConfigPoint{{Name: "base", Cfg: baseline(64)}},
	}
	emptyAfterWarmup := func(p Progress) {
		if p.Done == 0 {
			ResetStreamCache()
		}
	}
	if _, err := Run(context.Background(), m, WithProgress(emptyAfterWarmup)); err != nil {
		t.Fatal(err)
	}
	if entries, _ := StreamCacheStats(); entries != 0 {
		t.Errorf("groups recorded %d streams after warm-up, want 0", entries)
	}
}

// TestImageSeedCaching: one image per (benchmark, perturbation);
// distinct perturbations are distinct programs.
func TestImageSeedCaching(t *testing.T) {
	a, err := ImageSeed("compress", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ImageSeed("compress", 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("seed-0 image not cached")
	}
	p, err := ImageSeed("compress", 7919)
	if err != nil {
		t.Fatal(err)
	}
	if p == a {
		t.Error("perturbed image identical to unperturbed one")
	}
	if _, err := ImageSeed("nonesuch", 0); err == nil {
		t.Error("unknown benchmark succeeded")
	}
	imagesMu.Lock()
	_, cached := images[imageKey{"nonesuch", 0}]
	imagesMu.Unlock()
	if cached {
		t.Error("a failed generation stayed cached")
	}
}

// TestParallelSetUpMatchesSerial warms six (benchmark, seed) units with
// four workers, as harness.Run's set-up does under WithWorkers(4), and
// checks each image and stream against one generated and recorded
// alone, outside the memo and the cache. The test first forgets its
// units, so every one is generated and recorded during the warm-up;
// run under the race detector it covers concurrent generation and
// recording.
func TestParallelSetUpMatchesSerial(t *testing.T) {
	const budget = 50_000
	m := Matrix{Name: "set-up", Benches: []string{"gcc", "go", "li"}, Seeds: []int64{4201, 4202}, Budget: budget}
	imagesMu.Lock()
	for _, b := range m.Benches {
		for _, s := range m.Seeds {
			delete(images, imageKey{b, s})
		}
	}
	imagesMu.Unlock()
	ResetStreamCache()
	defer ResetStreamCache()
	sts, err := warmStreams(context.Background(), m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 6 {
		t.Fatalf("warmed %d units, want 6", len(sts))
	}
	for u, st := range sts {
		p, err := workload.ByName(u.name)
		if err != nil {
			t.Fatal(err)
		}
		p.Seed += u.seed
		want, err := workload.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		im, err := ImageSeed(u.name, u.seed)
		if err != nil {
			t.Fatal(err)
		}
		if st.Image() != im {
			t.Errorf("%s/%d: stream recorded from another image than the memo's", u.name, u.seed)
		}
		if !reflect.DeepEqual(im, want) {
			t.Errorf("%s/%d: image generated in parallel differs from one generated alone", u.name, u.seed)
		}
		wantSt, err := emulator.Record(want, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, wantSt) {
			t.Errorf("%s/%d: stream recorded in parallel differs from one recorded alone", u.name, u.seed)
		}
	}
}
