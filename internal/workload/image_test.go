package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"tracepre/internal/isa"
	"tracepre/internal/program"
)

// imageDigest hashes everything an image executes from: base, entry,
// the encoding of every instruction, and the data section.
func imageDigest(im *program.Image) string {
	h := sha256.New()
	put := func(v uint32) {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], v)
		h.Write(w[:])
	}
	put(im.Base)
	put(im.Entry)
	put(uint32(im.NumInstrs()))
	for _, in := range im.Insts() {
		put(isa.MustEncode(in))
	}
	put(im.DataBase)
	put(uint32(len(im.Data)))
	for _, w := range im.Data {
		put(w)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// labelDigest hashes a symbol table as sorted name=address lines.
func labelDigest(syms map[string]uint32) string {
	names := make([]string, 0, len(syms))
	for n := range syms {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%#x\n", n, syms[n])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratedImagesUnchanged pins every profile's generated program:
// its code and data digest, and its exported labels, which are the
// function-level ones (main, driver_top, fnN) at fixed addresses. A
// change here moves every simulated number, so it must be deliberate.
func TestGeneratedImagesUnchanged(t *testing.T) {
	want := map[string]struct {
		image, labels string
		nlabels       int
	}{
		"gcc":      {"23c2b923dd54a7f7ba6d9b9cbda8387f6ceacd2929cfca3ef6030ef21bf74fe2", "918d0c6706c2969117eee576a089333dc78abb338d00046b1a9c6bf47d210607", 402},
		"go":       {"cd27d9913e5ef477da52516e0d62925dcb5458c02a89127298077e9fee3f4c6d", "0d0c127eb54dc3d305a881205e569e3559c9ae0b41ab5e9d24463507a6850c43", 342},
		"compress": {"b0e01868c34d792cae16724dbc2fa4018531ff1193fe20c2a0213b6043311eea", "ef008356711237af96b68562535ba59effb4eb707b20c52b242c3c003875e249", 10},
		"ijpeg":    {"8fff50fc6ba296452a86d989b91c78364cf0cf9b15e57f901293c47f61742a5b", "6cc5ac5da0300cb8302cacb31059775a176ee03ff466ec9a95dbee55cd44a375", 22},
		"li":       {"b492dc3df66a3e11a04ea6b7239aa6483b8eee22d6462741b3aa45ff523d4658", "d55209d32af9188be82fa88e7a8eb878fec8a945d2be1d2aaa7dcafc6e3d639b", 82},
		"m88ksim":  {"b7a3e2c818b9105da03eee07de51e9fca5396cfddacfc1dd3d56af74dc44da74", "c602dad824845fb1d11ae89d88babf33c92a7ef5c019344106aceb1775e4e7e4", 92},
		"perl":     {"163a366b2032bd451b429201a613f4590197cdcb3a8505b52d8e8a6017e2e489", "b5db6bafef02b2920403189ca976e8414d2e368cfd3cec678f7fecb7466c85dd", 152},
		"vortex":   {"03931cffaf7b252581aa67f039a5397cdef04b16c79365a4e09f47faeca25cd1", "810f6fa0b0adec4cce10f3c3f5d0d42ce050bd614e3c115540c41859aea4a2af", 382},
	}
	for _, p := range SPECint95() {
		im, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		w := want[p.Name]
		if got := imageDigest(im); got != w.image {
			t.Errorf("%s: image digest %s, want %s", p.Name, got, w.image)
		}
		if len(im.Symbols) != w.nlabels {
			t.Errorf("%s: %d exported labels, want %d", p.Name, len(im.Symbols), w.nlabels)
		}
		if got := labelDigest(im.Symbols); got != w.labels {
			t.Errorf("%s: label digest %s, want %s", p.Name, got, w.labels)
		}
	}
}

// TestImageFootprint bounds what a generated gcc image keeps alive:
// its decoded instructions (about 616 KiB), data section and function
// labels. Keeping the encoded words as well, or exporting every block
// label, pushes it past the bound.
func TestImageFootprint(t *testing.T) {
	p, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	im, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(im)
	const limit = 768 << 10
	t.Logf("gcc image retains %d KiB (%d instructions)", retained>>10, im.NumInstrs())
	if retained > limit {
		t.Errorf("gcc image retains %d KiB, want at most %d KiB", retained>>10, limit>>10)
	}
}

// TestGenerateAllocs bounds the garbage one generation makes: building
// the gcc image must allocate at most 10 MiB in at most 85k objects.
// Set-up generates images in parallel, so what one generation
// allocates shows in a sweep's peak RSS. Listing the shared pool's
// candidates at every call site, rather than picking one by index,
// pushes it past the bound (12.4 MiB in 105k objects).
func TestGenerateAllocs(t *testing.T) {
	p, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Generate(p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	objects := after.Mallocs - before.Mallocs
	t.Logf("Generate(gcc) allocates %d KiB in %d objects", bytes>>10, objects)
	if bytes > 10<<20 || objects > 85_000 {
		t.Errorf("Generate(gcc) allocates %d KiB in %d objects, want at most %d KiB in %d",
			bytes>>10, objects, 10<<10, 85_000)
	}
}
