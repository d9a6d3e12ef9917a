GO ?= go

# `make check` is the repository's pre-merge gate: static checks, a full
# build, the concurrent layers' suites twice under the race detector, the
# whole test suite under the race detector, the telemetry overhead budget
# (TestTelemetryOverheadBudget fails if disabled telemetry shifts the
# mean response time by 5% or more — it must be exactly 0), and the recorded
# benchmark trajectory (bench-gate fails on a >15% ns/op or allocs/op
# regression between the two newest BENCH_*.json snapshots; it is a no-op
# until a second snapshot exists), and a short run of every fuzz target.
.PHONY: check
check: vet build runner-race server-race coord-race devstore-race race overhead bench-gate fuzz

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

# Every test under the race detector once. The targets below re-run the
# deliberately concurrent layers a second time, since their scheduling
# varies between runs.
.PHONY: race
race:
	$(GO) test -race ./...

# The sweep runner is the one deliberately concurrent layer; run its suite
# twice under the race detector (scheduling varies between runs).
.PHONY: runner-race
runner-race:
	$(GO) test -race -count=2 ./internal/runner

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
# evict on the content-addressed archive (the store is shared mutable
# state under every age job and fork admission, so interleavings matter;
# -count=2 varies them).
.PHONY: devstore-race
devstore-race:
	$(GO) test -race -count=2 ./internal/devstore

# Run every native fuzz target in the module for FUZZTIME each. Targets are
# discovered with `go test -list`, so a new Fuzz* function joins the run
# without an edit here. Failing inputs land in the package's testdata/fuzz.
# A 1 s minimize time keeps the engine from spending up to 60 s shrinking
# each new corpus entry, which stalls a short run at 0 execs/s.
FUZZTIME ?= 10s

.PHONY: fuzz
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	targets=$$(echo "$$list" | awk '/^Fuzz/ {n[++k] = $$1} /^ok/ {for (i = 1; i <= k; i++) print $$2 "," n[i]; k = 0}'); \
	[ -n "$$targets" ] || { echo "fuzz: no targets found" >&2; exit 1; }; \
	for t in $$targets; do \
		echo "fuzz: $${t#*,} in $${t%,*} for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*,}$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s $${t%,*} || exit 1; \
	done

# Print the non-test and test Go line counts outside perfbench/, the size
# numbers ROADMAP tracks. Not part of `check`.
.PHONY: loc
loc:
	@find . -name '*.go' -not -path './perfbench/*' -not -name '*_test.go' -exec cat {} + | wc -l | awk '{print "non-test Go lines: " $$1}'
	@find . -name '*.go' -not -path './perfbench/*' -name '*_test.go' -exec cat {} + | wc -l | awk '{print "test Go lines:     " $$1}'

.PHONY: overhead
overhead:
	$(GO) test -run TestTelemetryOverheadBudget -v .

.PHONY: bench
bench:
	$(GO) test -bench=. -benchtime=1x .

# Capture CPU and heap profiles of the streaming replay hot loop, and a
# heap profile of every allocation a snapshot fork makes (the aged device's
# set-up is in it too; focus on RestoreSealed), into ./prof/ for pprof
# inspection (`go tool pprof prof/replay.cpu`). See docs/PERF.md for how to
# read them and for profiling a live server run.
.PHONY: profile
profile:
	mkdir -p prof
	$(GO) test -run '^$$' -bench 'ReplayStream1k|ReplayUFS1k' -benchtime=200x \
		-cpuprofile=prof/replay.cpu -memprofile=prof/replay.mem \
		-o prof/core.test ./internal/core
	$(GO) test -run '^$$' -bench 'SnapshotFork/fork' -benchtime=20x \
		-memprofile=prof/fork.mem -memprofilerate=1 \
		-o prof/experiments.test ./internal/experiments
	@echo "profiles written: prof/replay.cpu prof/replay.mem (binary prof/core.test)"
	@echo "                  prof/fork.mem (binary prof/experiments.test)"

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
