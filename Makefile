GO ?= go

# `make check` is the repository's pre-merge gate: static checks, a full
# build, the sweep-runner suite under the race detector, the test suite under
# the race detector, the telemetry overhead budget
# (TestTelemetryOverheadBudget fails if disabled telemetry shifts the
# mean response time by 5% or more — it must be exactly 0), and the recorded
# benchmark trajectory (bench-gate fails on a >15% ns/op or allocs/op
# regression between the two newest BENCH_*.json snapshots; it is a no-op
# until a second snapshot exists).
.PHONY: check
check: vet build runner-race faults-race stream-race server-race coord-race device-race devstore-race perf-race race overhead bench-gate

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: build
build:
	$(GO) build ./...

# Tier-1 gate: vet, full build, full test suite.
.PHONY: test
test: vet build
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

# The sweep runner is the one deliberately concurrent layer; run its suite
# twice under the race detector (scheduling varies between runs).
.PHONY: runner-race
runner-race:
	$(GO) test -race -count=2 ./internal/runner

# The fault-injection plane under the race detector: injector determinism,
# FTL retirement paths, device recovery, and the fault-ramp sweep at -j 8.
.PHONY: faults-race
faults-race:
	$(GO) test -race -run 'Fault|Retire|DeepAged|Uncorrectable' ./internal/faults ./internal/ftl ./internal/emmc ./internal/experiments

# The streaming pipeline under the race detector: stream primitives and
# codecs, the streaming replay loops, online statistics, and the
# stream-vs-slice equivalence sweep at full worker width.
.PHONY: stream-race
stream-race:
	$(GO) test -race -run 'Stream|Online|Accumulator|Repeat|Merge' ./internal/trace ./internal/core ./internal/stats ./internal/analysis ./internal/experiments

# The device layer under the race detector: the backend-neutral storage
# seam, the UFS command-queue/booster model, the blockdev driver's
# capability-gated packing, and the cross-backend determinism suite (which
# replays all three backends in parallel subtests).
.PHONY: device-race
device-race:
	$(GO) test -race ./internal/storage ./internal/ufs ./internal/blockdev
	$(GO) test -race -run 'CrossBackend|Golden|BackendsDiverge|UFS' ./internal/core

# The job service under the race detector: queue backpressure, mid-replay
# cancellation, drain-on-shutdown, and the 64-way concurrent submission
# load test (scheduling varies between runs, hence -count=2).
.PHONY: server-race
server-race:
	$(GO) test -race -count=2 ./internal/server

# The sweep coordinator under the race detector: shard fan-out determinism,
# the chaos harness (429-saturated, stalling, and dying workers), local
# degradation, and cancel-mid-sweep propagation (scheduling and failure
# interleavings vary between runs, hence -count=2).
.PHONY: coord-race
coord-race:
	$(GO) test -race -count=2 ./internal/coord

# The device snapshot store under the race detector: concurrent Put/Get/
# evict on the content-addressed archive, seal/restore determinism, the
# fork-vs-reage bit-identity contract, and the /v1/devices + from_device
# server surface (the store is shared mutable state under every age job
# and fork admission, so interleavings matter; -count=2 varies them).
.PHONY: devstore-race
devstore-race:
	$(GO) test -race -count=2 ./internal/devstore
	$(GO) test -race -run 'Seal|Fork|Aged|Device' ./internal/storage ./internal/experiments ./internal/server

# The pooling layer under the race detector: the event engine's slot
# recycling, the allocation-sensitive replay paths, and the FTL's dense
# mapping tables (the sparse-LPN randomized test, the out-of-range guards,
# and the pinned seal digests). Pools turn would-be-fresh objects into
# shared mutable state, so this is where a forgotten reset or an aliased
# scratch buffer shows up first.
.PHONY: perf-race
perf-race:
	$(GO) test -race ./internal/sim
	$(GO) test -race -run 'Alloc|Equivalence|Pool|Recycle|Scratch|Sparse|OutOfRange|Pinned' ./internal/core ./internal/emmc ./internal/ufs ./internal/ftl ./internal/storage

.PHONY: overhead
overhead:
	$(GO) test -run TestTelemetryOverheadBudget -v .

.PHONY: bench
bench:
	$(GO) test -bench=. -benchtime=1x .

# Capture CPU and heap profiles of the streaming replay hot loop into
# ./prof/ for pprof inspection (`go tool pprof prof/replay.cpu`). See
# docs/PERF.md for how to read them and for profiling a live server run.
.PHONY: profile
profile:
	mkdir -p prof
	$(GO) test -run '^$$' -bench 'ReplayStream1k|ReplayUFS1k' -benchtime=200x \
		-cpuprofile=prof/replay.cpu -memprofile=prof/replay.mem \
		-o prof/core.test ./internal/core
	@echo "profiles written: prof/replay.cpu prof/replay.mem (binary prof/core.test)"

# Record one point on the performance trajectory: run the stream/sweep/replay
# benchmark set and write BENCH_<today>.json (commit it with the PR).
.PHONY: bench-snapshot
bench-snapshot:
	$(GO) run ./cmd/benchsnap

# Gate the trajectory: compare the two newest BENCH_*.json snapshots and fail
# on a >15% regression in ns/op or allocs/op. Skips (exit 0) until two
# snapshots exist.
.PHONY: bench-gate
bench-gate:
	$(GO) run ./cmd/benchsnap -compare
