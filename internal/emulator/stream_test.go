package emulator

import (
	"testing"

	"tracepre/internal/workload"
)

// recordedAndDirect runs a benchmark image through the reference
// interpreter and through Record then replay, and returns the two Dyn
// sequences.
func recordedAndDirect(t *testing.T, name string, budget uint64) (direct, replayed []Dyn) {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newRef(im).Run(budget, func(d Dyn) bool {
		direct = append(direct, d)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	st, err := Record(im, budget)
	if err != nil {
		t.Fatal(err)
	}
	rp := st.Replay()
	for {
		d, ok := rp.Next()
		if !ok {
			break
		}
		replayed = append(replayed, d)
	}
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	return direct, replayed
}

func TestReplayBitIdentical(t *testing.T) {
	const budget = 50_000
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			direct, replayed := recordedAndDirect(t, name, budget)
			if len(direct) != len(replayed) {
				t.Fatalf("direct %d instrs, replay %d", len(direct), len(replayed))
			}
			for i := range direct {
				if direct[i] != replayed[i] {
					t.Fatalf("instr %d differs:\ndirect %+v\nreplay %+v", i, direct[i], replayed[i])
				}
			}
		})
	}
}

func TestStreamCompact(t *testing.T) {
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Record(im, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Fatal("empty recording")
	}
	if bpi := st.BytesPerInstr(); bpi >= 8 {
		t.Errorf("encoding too fat: %.2f bytes/instr (want < 8)", bpi)
	}
}

func TestReplayerIndependent(t *testing.T) {
	p, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Record(im, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	// Two interleaved replayers must not perturb each other.
	a, b := st.Replay(), st.Replay()
	for {
		da, oka := a.Next()
		db, okb := b.Next()
		if oka != okb {
			t.Fatal("replayers diverge in length")
		}
		if !oka {
			break
		}
		if da != db {
			t.Fatalf("replayers diverge: %+v vs %+v", da, db)
		}
	}
}
