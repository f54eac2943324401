# Convenience targets for the tracepre reproduction.

GO ?= go

.PHONY: all build examples fmt-check vet lint test race bench bench-smoke experiments fuzz ci clean

all: build vet test

# What CI runs (.github/workflows/ci.yml): the tier-1 gate plus a
# race-detector pass over the short suite and the lint job.
ci: build lint test
	$(GO) test -race -short ./...

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
# CI canary that the benchmarks build and run (see BENCH_precon.json,
# BENCH_interning.json and BENCH_broadcast.json for how to take real
# numbers). The steady-state allocation contracts run here too — the
# trace store's intern/release round, the chunked replay loop, and the
# chunk-buffer pool — plus the group driver's correctness gates:
# decode-once counting, full-Result equivalence against each cell run
# alone, and stream-cache accounting untouched by decoded chunks.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Observe|RegionChurn|U32Set|LineSet|AddrIndex' \
		-benchtime 1x -benchmem ./internal/precon/
	$(GO) test -run '^$$' -bench 'InternHit|InternChurn|Clone' \
		-benchtime 1x -benchmem ./internal/trace/
	$(GO) test -run '^$$' -bench 'Figure5Broadcast' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'Figure5Sampled' -benchtime 1x -benchmem .
	$(GO) test -run TestInternSteadyStateAllocs -count 1 ./internal/trace/
	$(GO) test -run 'TestChunkLoopSteadyStateAllocs' -count 1 ./internal/pipeline/
	$(GO) test -run 'TestChunkBufPoolSteadyState' -count 1 ./internal/emulator/
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

clean:
	$(GO) clean ./...
