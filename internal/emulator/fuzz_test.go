package emulator

import (
	"errors"
	"testing"
)

// FuzzReplayer decodes damaged copies of a recorded stream through
// DecodeChunks: the branch-outcome bits (field even) or the aux deltas
// (field odd) are truncated to cut bytes (xor 0) or have byte cut
// flipped by xor. Whatever the damage, the pass must end cleanly — a
// nil error after every recorded instruction, or an error wrapping
// ErrCorruptStream — and never panic.
func FuzzReplayer(f *testing.F) {
	st := recordBench(f, "li", 20_000)
	// Half the branch bits: decode runs off the end of taken.
	f.Add(uint8(0), uint32(len(st.taken)/2), uint8(0), uint16(0))
	// A flipped aux bit whose jump target lies outside the image.
	f.Add(uint8(1), uint32(12), uint8(1), uint16(7))
	f.Fuzz(func(t *testing.T, field uint8, cut uint32, xor uint8, chunkLen uint16) {
		bad := *st
		buf := &bad.taken
		if field%2 == 1 {
			buf = &bad.aux
		}
		b := append([]byte(nil), *buf...)
		switch {
		case xor == 0:
			b = b[:int(cut)%(len(b)+1)]
		case len(b) > 0:
			b[int(cut)%len(b)] ^= xor
		}
		*buf = b

		cr := bad.DecodeChunks(int(chunkLen))
		defer cr.Close()
		var n uint64
		for {
			chunk, ok := cr.Next()
			if !ok {
				break
			}
			n += uint64(len(chunk))
		}
		switch err := cr.Err(); {
		case err == nil && n != st.Len():
			t.Fatalf("clean pass decoded %d of %d instructions", n, st.Len())
		case err != nil && !errors.Is(err, ErrCorruptStream):
			t.Fatalf("damaged stream failed with %v, want ErrCorruptStream", err)
		}
	})
}
