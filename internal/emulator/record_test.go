package emulator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"tracepre/internal/program"
	"tracepre/internal/workload"
)

// seededImage generates a benchmark's program with the generator-seed
// perturbation added to its profile seed, as harness.ImageSeed does.
func seededImage(t testing.TB, name string, seed int64) *program.Image {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed += seed
	im, err := workload.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// streamDigest hashes everything a Stream records: its entry PC,
// instruction count, branch-bit count, branch bytes and aux bytes.
func streamDigest(s *Stream) string {
	h := sha256.New()
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], s.entry)
	binary.LittleEndian.PutUint64(hdr[4:], s.n)
	binary.LittleEndian.PutUint64(hdr[12:], s.nbits)
	h.Write(hdr[:])
	h.Write(s.taken)
	h.Write(s.aux)
	return hex.EncodeToString(h.Sum(nil))
}

// TestRecordedStreamsUnchanged pins the recorded stream of every
// profile at generator seeds 0 and 1 over 250k instructions, plus gcc
// and go at seed 1 over 6M (skipped under -short). Every
// simulated number is computed from these bytes, so a change to the
// recorder that moves one of them must be deliberate.
func TestRecordedStreamsUnchanged(t *testing.T) {
	type unit struct {
		name   string
		seed   int64
		budget uint64
	}
	want := map[unit]string{
		{"gcc", 0, 250_000}:      "355fb4dde1b154b581d58bf1c119b63911455b081a246ee02607bf44b534975a",
		{"gcc", 1, 250_000}:      "7a343d67de4c479ac672657d3e1411c288b5694f39262fd59102f31d53e0a560",
		{"go", 0, 250_000}:       "909458dc07075fb7cf2486d0e809bd32d48c474d843fdddc229412e6687932f9",
		{"go", 1, 250_000}:       "469632eb33205c8d9cf7ce5773c118dec91604c7cd3db589e3654ab7f904173e",
		{"compress", 0, 250_000}: "964a2715e7c10d5d952a9f1b2e93b52f62aa88182234aa14c3001ce35a8ae9f1",
		{"compress", 1, 250_000}: "5ad34138b079775f03a702ad4831a1356d3dd930dd043a8f5522f63d0870e180",
		{"ijpeg", 0, 250_000}:    "029095b5790fec03b9c74430cf6a034a1e02a2e1a2a6e02bbc66d13fe6c04b3e",
		{"ijpeg", 1, 250_000}:    "6e0e9ca1dd0c8b3c4f0287ae604c2ad301a9bb3448466e9c4f69c2b494af8379",
		{"li", 0, 250_000}:       "a1e6d3639013711597a289f68a8e79c7bac7ac12988b2f83e7f8108c9671feaa",
		{"li", 1, 250_000}:       "2db531fb16b78b62e3a87ae28c2de1ee0811d7832192102b1aabef9c18cff5a4",
		{"m88ksim", 0, 250_000}:  "03df54d9c797ab7445cbe54b07ea44e244fc3910d4ef663963aacb9fe4dd7858",
		{"m88ksim", 1, 250_000}:  "6a59715ac511987ca3000fbecd8531e730bab1142a5fd4534415558173449b8a",
		{"perl", 0, 250_000}:     "7179b08d76914f4d9cfb67ffc510f8406b31f15a189be950647b31ecd74d4af9",
		{"perl", 1, 250_000}:     "fffdea000acb53e97a83aaba27dd45628035904f9ef68e7d8db2f0d1171fc5f0",
		{"vortex", 0, 250_000}:   "c23eb3fe5d6d80f59f70bc96dd2ce43414dad1b9e2b275ca843ff4ab4c4fc8d6",
		{"vortex", 1, 250_000}:   "c957afe122c059ead7316011432f771e2b393239859ce6a6b36f5ba5ce577165",
		{"gcc", 1, 6_000_000}:    "6c8522831a18f47b3a5aebdc43d4125d934fca0802595fa701cb4afe9f09223e",
		{"go", 1, 6_000_000}:     "52be7beb49c98315f3a535c5acc0f124e97a94e9a151263b703a7c9c66b89dcf",
	}
	for u, digest := range want {
		t.Run(fmt.Sprintf("%s/%d/%d", u.name, u.seed, u.budget), func(t *testing.T) {
			if u.budget > 250_000 && testing.Short() {
				t.Skip("6M recordings in -short mode")
			}
			st, err := Record(seededImage(t, u.name, u.seed), u.budget)
			if err != nil {
				t.Fatal(err)
			}
			if got := streamDigest(st); got != digest {
				t.Errorf("stream digest %s, want %s", got, digest)
			}
		})
	}
}

// TestRecordAllocs checks that nothing escapes to the heap per
// instruction: recording four times as many instructions allocates
// only the few extra objects of growing the stream's two byte slices
// and the data pages the longer run touches.
func TestRecordAllocs(t *testing.T) {
	im := seededImage(t, "gcc", 0)
	allocs := func(budget uint64) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := Record(im, budget); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(500_000), allocs(2_000_000)
	t.Logf("recording allocated %v objects at 500k instructions and %v at 2M", short, long)
	if long > short+16 {
		t.Errorf("recording allocated %v objects at 500k instructions and %v at 2M, want at most 16 more",
			short, long)
	}
}

// BenchmarkRecord measures recording speed per committed instruction
// on the two largest programs.
func BenchmarkRecord(b *testing.B) {
	const budget = 2_000_000
	for _, name := range []string{"gcc", "go"} {
		b.Run(name, func(b *testing.B) {
			im := seededImage(b, name, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Record(im, budget); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*budget), "ns/instr")
		})
	}
}
