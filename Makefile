# Convenience targets for the tracepre reproduction.

GO ?= go

.PHONY: all build examples fmt-check vet lint test race bench bench-smoke experiments fuzz ci clean

all: build vet test

# What CI runs (.github/workflows/ci.yml): the build, the examples, the
# shuffled test suite, a race-detector pass over the short suite, the
# benchmark module (its own Go module, so ./... above never compiles
# it), the bench smoke run, and the lint job with its race pass over
# the trace table, the trace caches and the group driver (a table
# reached from two concurrently running groups shows up as a race).
ci: build lint examples
	$(GO) test -shuffle=on ./...
	$(GO) test -race -short ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) bench-smoke
	$(GO) test -race ./internal/trace ./internal/tracecache
	$(GO) test -race -run 'TestBroadcast|TestGridIndependentOfWorkers' ./internal/harness

build:
	$(GO) build ./...
	$(GO) build ./examples/...

# Build and run every example; each finishes in a second or two.
# precon-anatomy exits non-zero when preconstruction supplies none of
# its demanded traces ahead of need.
examples:
	$(GO) build ./examples/...
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d > /dev/null || exit 1; \
	done

# Fail when any file drifts from gofmt — mirrored by the CI lint job.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Lint: gofmt gate and vet always; staticcheck when installed (CI
# installs it — see the lint job in .github/workflows/ci.yml).
lint: fmt-check vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the hot-path microbenchmarks: not a measurement, a
# CI canary that the benchmarks build and run (real numbers come from
# `bash perfbench/run.sh`, which BENCHMARK.json declares). The
# allocation contracts run here too — the trace table's intern hit and
# its growth (headers carved from slabs, not one per trace),
# the chunked replay loop, a whole decode pass, a recording (slice
# growth only, nothing per instruction), the cost of one more
# group member over shared predictor tables, the backend's dispatch and
# the fill unit's preprocessing — as do the bounds on what one
# generated program image retains, on what generating it allocates and
# on the bytes of one per-trace analysis entry, the backend's
# per-trace analysis table checks (two traces sharing an ID but not
# their instructions each dispatch as the reference does; a
# four-member full-timing group analyzes each distinct trace once),
# plus the group driver's correctness gates:
# decode-once counting, full-Result equivalence against each cell run
# alone (shared predictors and Figure 8's full-timing points
# included), and stream-cache accounting untouched by decoded chunks,
# and the engine's differential test against its reference at the
# short size, with the equivalence of the walk's straight-line runs to
# per-instruction appends.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Observe|RegionChurn' \
		-benchtime 1x -benchmem ./internal/precon/
	$(GO) test -run '^$$' -bench 'InternHit|InternMiss|Clone|Segmenter' \
		-benchtime 1x -benchmem ./internal/trace/
	$(GO) test -run '^$$' -bench 'Optimize' -benchtime 1x -benchmem ./internal/preproc/
	$(GO) test -run '^$$' -bench 'Record' -benchtime 1x -benchmem ./internal/emulator/
	$(GO) test -run '^$$' -bench 'Figure5Broadcast' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'Figure5Sampled' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'SimulateFullTiming' -benchtime 1x -benchmem .
	$(GO) test -run 'TestInternSteadyStateAllocs|TestStoreGrowthAllocs' -count 1 ./internal/trace/
	$(GO) test -run 'TestImageFootprint|TestGenerateAllocs' -count 1 ./internal/workload/
	$(GO) test -run 'TestChunkLoopSteadyStateAllocs' -count 1 ./internal/pipeline/
	$(GO) test -run 'TestDispatchSteadyStateAllocs|TestAnalysis' -count 1 ./internal/pipeline/
	$(GO) test -run 'TestOptimizeAllocs' -count 1 ./internal/preproc/
	$(GO) test -run 'TestDecodeChunksAllocs|TestRecordAllocs' -count 1 ./internal/emulator/
	$(GO) test -run 'TestGroupMemberAllocs' -count 1 ./internal/pipeline/
	$(GO) test -run 'TestBroadcast' -count 1 ./internal/harness/
	$(GO) test -run 'TestFastForwardSteadyStateAllocs' -count 1 ./internal/pipeline/
	$(GO) test -run 'TestSampledCoversFullRunCI' -count 1 ./internal/core/
	$(GO) test -run 'TestSampled' -count 1 ./internal/harness/ ./internal/sample/
	$(GO) test -short -run 'TestEngineMatchesReference' -count 1 ./internal/precon/
	$(GO) test -run 'TestAppendRunMatchesAppendClassified' -count 1 ./internal/trace/

# Regenerate every paper table/figure plus the extension studies at the
# full default budget (writes to stdout; takes a few minutes).
experiments: build
	$(GO) run ./cmd/tablegen -exp all

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/isa/
	$(GO) test -fuzz FuzzAssemble -fuzztime 30s ./internal/asm/
	$(GO) test -fuzz FuzzChunkSegmenter -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzReplayer -fuzztime 30s ./internal/emulator/
	$(GO) test -fuzz FuzzRecord -fuzztime 30s ./internal/emulator/
	$(GO) test -fuzz FuzzConfig -fuzztime 30s ./internal/pipeline/
	$(GO) test -fuzz FuzzEngine -fuzztime 30s ./internal/precon/

clean:
	$(GO) clean ./...
