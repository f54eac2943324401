package pipeline

import (
	"testing"

	"tracepre/internal/mem"
)

// configFields are the mutations FuzzConfig applies to the default
// configuration. Each sets one field from a small signed value, scaled
// where the field counts bytes, so both valid and invalid settings come
// up and no setting allocates much.
var configFields = []struct {
	name string
	set  func(c *Config, v int)
}{
	{"Select.MaxLen", func(c *Config, v int) { c.Select.MaxLen = v }},
	{"Select.AlignMod", func(c *Config, v int) { c.Select.AlignMod = v }},
	{"TraceCache.Entries", func(c *Config, v int) { c.TraceCache.Entries = v }},
	{"TraceCache.Assoc", func(c *Config, v int) { c.TraceCache.Assoc = v }},
	{"Buffers.Entries", func(c *Config, v int) { c.Buffers.Entries = v }},
	{"Buffers.Assoc", func(c *Config, v int) { c.Buffers.Assoc = v }},
	{"Buffers.PlainLRU", func(c *Config, v int) { c.Buffers.PlainLRU = v%2 != 0 }},
	{"ICacheBytes", func(c *Config, v int) { c.ICacheBytes = 64 * v }},
	{"Mem", func(c *Config, v int) {
		if v%2 != 0 {
			c.Mem = mem.DefaultModeledL2()
		}
		c.Mem.ModelL2 = v != 0
	}},
	{"Mem.SizeBytes", func(c *Config, v int) { c.Mem.SizeBytes = 1024 * v }},
	{"Mem.Assoc", func(c *Config, v int) { c.Mem.Assoc = v }},
	{"Mem.MSHRs", func(c *Config, v int) { c.Mem.MSHRs = v }},
	{"L2Lat", func(c *Config, v int) { c.L2Lat = v }},
	{"SlowFetchWidth", func(c *Config, v int) { c.SlowFetchWidth = v }},
	{"MispredictPenalty", func(c *Config, v int) { c.MispredictPenalty = v }},
	{"Precon.StackDepth", func(c *Config, v int) { c.Precon.StackDepth = v }},
	{"Precon.PrefetchInstrs", func(c *Config, v int) { c.Precon.PrefetchInstrs = v }},
	{"Precon.NumConstructors", func(c *Config, v int) { c.Precon.NumConstructors = v }},
	{"AdaptivePartition", func(c *Config, v int) { c.AdaptivePartition = v%2 != 0 }},
	{"FullTiming", func(c *Config, v int) { c.FullTiming = v%2 != 0 }},
	{"FrontendIPC", func(c *Config, v int) { c.FrontendIPC = float64(v) / 4 }},
}

// fieldIndex returns the index of the named configFields entry.
func fieldIndex(name string) uint8 {
	for i, f := range configFields {
		if f.name == name {
			return uint8(i)
		}
	}
	panic("no config field " + name)
}

// FuzzConfig requires Validate to be the whole configuration check:
// for the default configuration under up to three field mutations,
// Validate returns nil exactly when New succeeds, and neither panics.
// The seeds are a zero drain rate under full timing, which the
// fast-forward phase still divides by; the check construction makes
// beyond the parts' own Validate methods: a prefetch cache smaller than
// one 64-byte i-cache line; a negative buffer count, which must not
// pass as preconstruction off; and plain-LRU buffers under the adaptive
// partition, whose unified store would ignore them.
func FuzzConfig(f *testing.F) {
	none := uint8(len(configFields)) // out of range: no mutation
	f.Add(fieldIndex("FullTiming"), int8(1), fieldIndex("FrontendIPC"), int8(0), none, int8(0))
	f.Add(fieldIndex("Buffers.Entries"), int8(64), fieldIndex("Precon.PrefetchInstrs"), int8(8), none, int8(0))
	f.Add(fieldIndex("Buffers.Entries"), int8(-1), none, int8(0), none, int8(0))
	f.Add(fieldIndex("Buffers.Entries"), int8(64), fieldIndex("AdaptivePartition"), int8(1), fieldIndex("Buffers.PlainLRU"), int8(1))
	im := loopImage(f, 5)
	f.Fuzz(func(t *testing.T, f1 uint8, v1 int8, f2 uint8, v2 int8, f3 uint8, v3 int8) {
		c := DefaultConfig()
		var applied []string
		for _, m := range []struct {
			field uint8
			v     int8
		}{{f1, v1}, {f2, v2}, {f3, v3}} {
			if int(m.field) < len(configFields) {
				fd := configFields[m.field]
				fd.set(&c, int(m.v))
				applied = append(applied, fd.name)
			}
		}
		verr := c.Validate()
		_, nerr := New(im, c)
		if (verr == nil) != (nerr == nil) {
			t.Fatalf("mutating %v: Validate = %v but New = %v", applied, verr, nerr)
		}
	})
}
