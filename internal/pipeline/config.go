// Package pipeline assembles the full trace processor model: the
// frontend (next-trace predictor, trace cache, preconstruction buffers,
// slow path with bimodal predictor and instruction cache) and the
// distributed backend (4 processing elements, 2-way issue each, global
// result buses), following §4.1 of the paper. The simulator is
// trace-driven: the functional emulator produces the committed stream,
// the selection rules segment it into demanded traces, and the model
// charges cycles for how each trace would have been supplied and
// executed.
package pipeline

import (
	"fmt"

	"tracepre/internal/cache"
	"tracepre/internal/frontend"
	"tracepre/internal/mem"
	"tracepre/internal/precon"
	"tracepre/internal/tpred"
	"tracepre/internal/trace"
	"tracepre/internal/tracecache"
)

// BackendConfig sizes the distributed execution engine.
type BackendConfig struct {
	NumPEs     int // processing elements (4)
	IssuePerPE int // issue slots per PE per cycle (2)
	XferLat    int // extra cycles for cross-PE register results (2)
	LoadLat    int // D-cache hit latency (2)
	MulLat     int // multiply latency (3, R10000-like)
	DivLat     int // divide latency (12)
	L2Lat      int // L2 hit latency for L1 misses (10)
	// Lookahead is how far past the oldest unissued instruction the
	// simple PE scans for ready work. Preprocessed traces always see
	// the whole window (the fill unit's schedule did the reordering).
	Lookahead int
}

// DefaultBackendConfig returns §4.1's backend.
func DefaultBackendConfig() BackendConfig {
	return BackendConfig{
		NumPEs:     4,
		IssuePerPE: 2,
		XferLat:    2,
		LoadLat:    2,
		MulLat:     3,
		DivLat:     12,
		L2Lat:      10,
		Lookahead:  10,
	}
}

// Validate checks the backend configuration.
func (c BackendConfig) Validate() error {
	if c.NumPEs <= 0 || c.IssuePerPE <= 0 {
		return fmt.Errorf("pipeline: PEs %d issue %d", c.NumPEs, c.IssuePerPE)
	}
	if c.XferLat < 0 || c.LoadLat < 1 || c.MulLat < 1 || c.DivLat < 1 || c.L2Lat < 0 {
		return fmt.Errorf("pipeline: bad latencies %+v", c)
	}
	if c.Lookahead < 1 {
		return fmt.Errorf("pipeline: Lookahead %d", c.Lookahead)
	}
	return nil
}

// DCache is the backend's data cache (§4.1: 64 KiB, 4-way, 64-byte
// lines), which no experiment varies.
var DCache = cache.Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4}

// Config is the full simulator configuration.
type Config struct {
	Select trace.SelectConfig

	TraceCache tracecache.Config
	// Buffers sizes the preconstruction buffers; Entries == 0 disables
	// preconstruction entirely.
	Buffers tracecache.Config

	ICache cache.Config

	// Mem selects the memory level behind the L1s, shared by demand
	// i-fetch, the backend's loads/stores, and the preconstruction
	// engine's stolen fetches. The zero value wires a FixedLevel at
	// Backend.L2Lat — the paper's perfect L2, byte-identical to the
	// pre-hierarchy model; set Mem.ModelL2 for a real shared L2 with
	// finite MSHRs and fill bandwidth (mem.DefaultModeledL2).
	Mem mem.Config

	SlowFetchWidth    int // instructions per cycle from the i-cache (4)
	MispredictPenalty int // frontend redirect penalty, cycles

	Pred   tpred.Config
	Precon precon.Config

	// PreprocEnabled turns on fill-unit preprocessing (§6): traces
	// supplied from the trace cache or preconstruction buffers execute
	// with the preprocessed schedule.
	PreprocEnabled bool

	// WindowInstrs, when positive, records per-window supply statistics
	// (Result.Windows): one window per this many committed
	// instructions. Used by cmd/tracesim's timeline view.
	WindowInstrs uint64

	// AdaptivePartition replaces the static trace-cache/buffer split
	// with a unified store of TraceCache.Entries + Buffers.Entries
	// entries whose partition adapts at run time — the dynamic
	// allocation the paper suggests as future work in §5.1. Requires
	// preconstruction to be enabled.
	AdaptivePartition bool

	// FFObservePrecon keeps the preconstruction engine live through the
	// fast-forward phase of a sampled run: demand-fetch notices, the
	// retiring stream, and an idle-cycle allowance estimated from the
	// nominal frontend IPC (fast-forward models no real timing). The
	// sampling plan enables it by default whenever the engine exists —
	// fast-forward probe-consumes the buffers, so an engine frozen
	// through a long skip leaves every measurement unit starting from a
	// drained preconstruction state no full-detail run ever exhibits.
	FFObservePrecon bool

	// FullTiming selects the detailed backend model. When false, the
	// backend is approximated by a fixed drain rate (FrontendIPC),
	// which is much faster and sufficient for the miss-rate and
	// instruction-supply experiments (Figure 5, Tables 1-3). The
	// fast-forward phase of a sampled run drains at FrontendIPC in
	// either mode.
	FullTiming  bool
	FrontendIPC float64

	Backend BackendConfig
}

// DefaultConfig returns the paper's configuration with a 512-entry trace
// cache and preconstruction disabled (the baseline).
func DefaultConfig() Config {
	return Config{
		Select:            trace.DefaultSelectConfig(),
		TraceCache:        tracecache.Config{Entries: 512, Assoc: 2},
		Buffers:           tracecache.Config{Entries: 0, Assoc: 2},
		ICache:            cache.Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 4},
		SlowFetchWidth:    4,
		MispredictPenalty: 5,
		Precon:            precon.DefaultConfig(),
		PreprocEnabled:    false,
		FullTiming:        false,
		FrontendIPC:       2.5,
		Backend:           DefaultBackendConfig(),
	}
}

// WithPrecon returns the configuration with a preconstruction buffer of
// the given entry count.
func (c Config) WithPrecon(entries int) Config {
	c.Buffers = tracecache.Config{Entries: entries, Assoc: 2}
	return c
}

// WithTraceCache returns the configuration with the given trace cache
// entry count.
func (c Config) WithTraceCache(entries int) Config {
	c.TraceCache = tracecache.Config{Entries: entries, Assoc: 2}
	return c
}

// PreconEnabled reports whether preconstruction is configured.
func (c Config) PreconEnabled() bool { return c.Buffers.Entries > 0 }

// WithModeledL2 returns the configuration with the given modeled memory
// level behind the L1s.
func (c Config) WithModeledL2(mc mem.Config) Config {
	c.Mem = mc
	return c
}

// frontendConfig slices the fetch-side configuration out for the
// frontend composition root. The shared memory hierarchy and the
// predictor tables are not part of the slice: the simulator's
// constructor binds them into the returned Config's Mem, Pred and Slow
// fields, so I-side and D-side misses meet in one level and group
// members can share predictor tables.
func (c Config) frontendConfig() frontend.Config {
	return frontend.Config{
		Select:            c.Select,
		TraceCache:        c.TraceCache,
		Buffers:           c.Buffers,
		AdaptivePartition: c.AdaptivePartition,
		ICache:            c.ICache,
		SlowFetchWidth:    c.SlowFetchWidth,
		MispredictPenalty: c.MispredictPenalty,
		Precon:            c.Precon,
	}
}

// Validate checks the full configuration.
func (c Config) Validate() error {
	if err := c.Select.Validate(); err != nil {
		return err
	}
	if err := c.TraceCache.Validate(); err != nil {
		return err
	}
	if err := c.ICache.Validate(); err != nil {
		return err
	}
	if c.PreconEnabled() {
		if err := c.Buffers.Validate(); err != nil {
			return err
		}
		if err := c.Precon.Validate(); err != nil {
			return err
		}
		if _, err := c.Precon.PrefetchLines(c.ICache.LineBytes); err != nil {
			return err
		}
	}
	if c.AdaptivePartition {
		if !c.PreconEnabled() {
			return fmt.Errorf("pipeline: AdaptivePartition requires preconstruction")
		}
		unified := tracecache.Config{
			Entries: c.TraceCache.Entries + c.Buffers.Entries,
			Assoc:   c.TraceCache.Assoc,
		}
		if err := unified.Validate(); err != nil {
			return fmt.Errorf("pipeline: adaptive partition: %w", err)
		}
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.SlowFetchWidth <= 0 {
		return fmt.Errorf("pipeline: SlowFetchWidth %d", c.SlowFetchWidth)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("pipeline: MispredictPenalty %d", c.MispredictPenalty)
	}
	if c.FrontendIPC <= 0 {
		return fmt.Errorf("pipeline: FrontendIPC %f", c.FrontendIPC)
	}
	return c.Backend.Validate()
}
