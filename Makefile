# Convenience targets for the tracepre reproduction.

GO ?= go

.PHONY: all build examples fmt-check vet lint test race bench bench-smoke experiments fuzz ci clean

all: build vet test

# What CI runs (.github/workflows/ci.yml): the tier-1 gate plus a
# race-detector pass over the short suite, the benchmark module (its
# own Go module, so ./... above never compiles it) and the lint job.
ci: build lint test
	$(GO) test -race -short ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...
	$(GO) build ./examples/...

examples:
	$(GO) build ./examples/...

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
# steady-state allocation contracts run here too — the trace store's
# intern/release round, the chunked replay loop, a whole decode pass,
# the backend's dispatch and the fill unit's preprocessing — plus the
# group driver's correctness gates: decode-once counting, full-Result
# equivalence against each cell run alone, and stream-cache accounting
# untouched by decoded chunks.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Observe|RegionChurn|U32Set|LineSet|AddrIndex' \
		-benchtime 1x -benchmem ./internal/precon/
	$(GO) test -run '^$$' -bench 'InternHit|InternChurn|Clone' \
		-benchtime 1x -benchmem ./internal/trace/
	$(GO) test -run '^$$' -bench 'Optimize' -benchtime 1x -benchmem ./internal/preproc/
	$(GO) test -run '^$$' -bench 'Figure5Broadcast' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'Figure5Sampled' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'SimulateFullTiming' -benchtime 1x -benchmem .
	$(GO) test -run TestInternSteadyStateAllocs -count 1 ./internal/trace/
	$(GO) test -run 'TestChunkLoopSteadyStateAllocs' -count 1 ./internal/pipeline/
	$(GO) test -run 'TestDispatchSteadyStateAllocs' -count 1 ./internal/pipeline/
	$(GO) test -run 'TestOptimizeAllocs' -count 1 ./internal/preproc/
	$(GO) test -run 'TestDecodeChunksAllocs' -count 1 ./internal/emulator/
	$(GO) test -run 'TestBroadcast' -count 1 ./internal/harness/
	$(GO) test -run 'TestFastForwardSteadyStateAllocs' -count 1 ./internal/pipeline/
	$(GO) test -run 'TestSampledCoversFullRunCI' -count 1 ./internal/core/
	$(GO) test -run 'TestSampled' -count 1 ./internal/harness/ ./internal/sample/

# Regenerate every paper table/figure plus the extension studies at the
# full default budget (writes to stdout; takes a few minutes).
experiments: build
	$(GO) run ./cmd/tablegen -exp all

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/isa/
	$(GO) test -fuzz FuzzAssemble -fuzztime 30s ./internal/asm/
	$(GO) test -fuzz FuzzChunkSegmenter -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzReplayer -fuzztime 30s ./internal/emulator/

clean:
	$(GO) clean ./...
