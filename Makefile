GO ?= go

.PHONY: all check build vet test test-race test-faults race bench bench-serve bench-serve-trace bench-serve-compare bench-shards vrecload vrecload-smoke experiments experiments-paper fuzz examples clean

all: check

# The full gate: build, vet, tests, the race detector over everything
# (including the reader/writer stress test), then the fault matrix.
check: build vet test test-race test-faults

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The fault matrix: chaos, circuit-breaker and transactional-drain tests
# re-run under the race detector at -count=2 (the second run shakes out any
# state a fault-injected first pass leaves behind).
test-faults:
	$(GO) test -run 'Chaos|Breaker|Drain' -race -count=2 ./internal/shard/... ./internal/server/...

race: test-race

# One testing.B bench per paper table/figure plus ablations and microbenches.
bench:
	$(GO) test -bench=. -benchmem ./...

# The serving benchmark of BENCHMARK.json (bench/README.md): 2k / 20k clips
# behind a real listener, answers checked, one JSON line of metrics per run.
# It builds into .bench_build/ and is a module of its own, so `make test`
# neither builds nor runs it.
#   make bench-serve WORKLOAD=browse_large SEED=3
#   make bench-serve-compare BASE=bench/out/base.json CHANGE=bench/out/change.json
WORKLOAD ?= browse_small
SEED ?= 1
RUN_SECONDS ?= 12
bench-serve:
	bash bench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(RUN_SECONDS) --trace 0

# The same workload's per-layer ladder (gather / refine / republish / ...).
bench-serve-trace:
	bash bench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(RUN_SECONDS) --trace 1

# ok / worse / unresolved per (workload, metric) between two --out records,
# each appended to by alternating runs of the two commits.
BASE ?= bench/out/base.json
CHANGE ?= bench/out/change.json
bench-serve-compare:
	bash bench/run.sh --compare $(BASE) $(CHANGE)

# The scatter-gather scaling benchmark in isolation: the same fixture at 1
# and 16 shards, suitable for -cpuprofile (see internal/shard/prof_test.go).
bench-shards:
	$(GO) test ./internal/shard/ -run '^$$' -bench FanOut -benchtime 300x

# HTTP-level storm harness: write three scenarios to BENCH_LOAD.json —
# unloaded baseline, a comment storm against the fixed limiter, and the same
# storm with the adaptive limiter + brownout (see README "Surviving traffic
# storms" for what the numbers mean). -service-time simulates a production-
# sized corpus so real queueing forms even on small CI boxes.
vrecload:
	$(GO) run ./cmd/vrecload -scenario unloaded -conc 4 -duration 5s \
	    -service-time 25ms -max-inflight 8 -max-queue 16 -query-timeout 250ms \
	    -out BENCH_LOAD.json
	$(GO) run ./cmd/vrecload -scenario storm/fixed -conc 24 -duration 8s \
	    -service-time 25ms -max-inflight 8 -max-queue 16 -query-timeout 250ms \
	    -storm-at 3s -storm-dur 2s -storm-factor 4 -out BENCH_LOAD.json -append
	$(GO) run ./cmd/vrecload -scenario storm/adaptive -conc 24 -duration 8s \
	    -service-time 25ms -max-inflight 8 -max-queue 12 -limit-floor 2 \
	    -limit-ceiling 12 -adjust-window 50ms -brownout -brownout-margin 35ms \
	    -query-timeout 65ms -storm-at 3s -storm-dur 2s -storm-factor 4 \
	    -out BENCH_LOAD.json -append

# CI smoke: one short closed-loop storm against an in-process server,
# asserting nonzero goodput, zero panics, and Retry-After on every 503.
vrecload-smoke:
	$(GO) run ./cmd/vrecload -scenario smoke/storm -conc 12 -duration 3s \
	    -service-time 10ms -max-inflight 4 -max-queue 8 -limit-floor 2 \
	    -limit-ceiling 12 -adjust-window 25ms -brownout -brownout-margin 20ms \
	    -query-timeout 60ms -storm-at 1s -storm-dur 1s -storm-factor 3 \
	    -out bench-load-smoke.json -check

# Regenerate every table and figure at the default (fast) scale.
experiments:
	$(GO) run ./cmd/experiments

# The paper's 50-200 hour sweep. Slow.
experiments-paper:
	$(GO) run ./cmd/experiments -scale paper

# Short fuzzing pass over every fuzz target, 20s each; the CI fuzz job runs
# this target, so a new target joins both by being added here.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzTreeOps$$' -fuzztime=20s ./internal/btree/
	$(GO) test -run='^$$' -fuzz='^FuzzShiftAddXor$$' -fuzztime=20s ./internal/hashing/
	$(GO) test -run='^$$' -fuzz='^FuzzZOrderPrefix$$' -fuzztime=20s ./internal/lsh/
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=20s ./internal/video/
	$(GO) test -run='^$$' -fuzz='^FuzzCompiledRoundTrip$$' -fuzztime=20s ./internal/signature/
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=20s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzReplayJournal$$' -fuzztime=20s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzReadTail$$' -fuzztime=20s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzJournalLine$$' -fuzztime=20s ./internal/store/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/newsroom
	$(GO) run ./examples/adcampaign
	$(GO) run ./examples/livestream
	$(GO) run ./examples/archive
	$(GO) run ./examples/copyrightbot

clean:
	$(GO) clean -testcache
	rm -f test_output.txt bench_output.txt
