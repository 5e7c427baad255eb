GO ?= go

.PHONY: verify fmt vet build test race bench chaos perfsmoke

# verify is the tier-1 gate: formatting, static checks, full build, and
# the complete test suite. CI runs exactly this target.
verify: fmt vet build test

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector; the detection-probability
# engine and the parallel solver loops carry dedicated hammer tests.
race:
	$(GO) test -race ./...

# CHAOS_ITERS scales the chaos hammer's drift/refit cycles; raise it
# for a soak run, e.g. `make chaos CHAOS_ITERS=50`.
CHAOS_ITERS ?= 10

# chaos runs the failure-containment suite under the race detector: the
# seeded fault-injection hammer over the observe→drift→refit→install
# loop (chaos_test.go), the solver/serve fault tests, and the
# crash-recovery e2e that SIGKILLs and restarts the real server binary.
chaos:
	CHAOS_ITERS=$(CHAOS_ITERS) $(GO) test -race -run 'TestChaos|TestRefit(Retry|Breaker)|Fault|Checkpoint|Backpressure|JobTable' -v . ./internal/solver ./internal/serve
	$(GO) test -race -run 'TestServeCrashRecovery' -v ./cmd/auditsim

# perfsmoke runs every perfbench workload for 3 s, untraced and traced,
# and fails unless each run exits 0 and its last line reports
# "correct": true. A deterministic output check that fails on every pass
# leaves a benchmark run without a result, and so does a perfbench build
# that an API change broke; this finds both in about half a minute.
# Shorter runs are too short: serve-mixed needs its drift steps.
PERFSMOKE_WORKLOADS = paper-syna bank-drift serve-mixed sim-seasonal

perfsmoke:
	@for w in $(PERFSMOKE_WORKLOADS); do \
		for tr in 0 1; do \
			out="$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 3 --trace $$tr)" || \
				{ echo "perfsmoke: $$w --trace $$tr exited $$?"; exit 1; }; \
			last="$$(printf '%s\n' "$$out" | tail -n 1)"; \
			case "$$last" in \
			'{"correct":true'*) echo "perfsmoke: $$w --trace $$tr: correct" ;; \
			*) printf '%s\n' "$$out" | tail -n 5; echo "perfsmoke: $$w --trace $$tr: not correct"; exit 1 ;; \
			esac; \
		done; \
	done

# PR names the benchmark artifact (BENCH_$(PR).json); override it when
# cutting a new baseline, e.g. `make bench PR=PR6`.
PR ?= PR10

# bench runs the detection-probability, paper-table, scaled-workload,
# warm-refit, policy-server, drift-tracker, and closed-loop simulation
# benchmarks and emits BENCH_$(PR).json (ns/op, B/op, allocs/op plus
# custom metrics) via cmd/benchjson. Pal, serve, and tracker benchmarks
# get enough iterations for stable ns/op and req/s; the table and
# scaled benchmarks are single-shot because each regenerates a full
# experiment; the warm-refit pairs get 10 iterations so the cold/warm
# ns/op ratio is stable. The sim pair records kernel events/s at 1 and
# default GOMAXPROCS and the step-change strategy comparison
# (cum_regret/refits/detection per strategy) — the drift-beats-static
# margin, pinned per PR.
bench:
	$(GO) test -run=NONE -bench='BenchmarkPal' -benchmem -benchtime=200x . > bench.out
	$(GO) test -run=NONE -bench='BenchmarkServeSelect' -benchmem -benchtime=2000x . >> bench.out
	$(GO) test -run=NONE -bench='BenchmarkTrackerObserve' -benchmem -benchtime=500000x . >> bench.out
	$(GO) test -run=NONE -bench='BenchmarkTelemetryOverhead' -benchmem -benchtime=100000x . >> bench.out
	$(GO) test -run=NONE -bench='BenchmarkTable' -benchmem -benchtime=1x . >> bench.out
	$(GO) test -run=NONE -bench='BenchmarkScaledCGGS' -benchmem -benchtime=1x . >> bench.out
	$(GO) test -run=NONE -bench='BenchmarkWarmRefit' -benchmem -benchtime=10x . >> bench.out
	$(GO) test -run=NONE -bench='BenchmarkGreedyOracle' -benchmem -benchtime=3x ./internal/solver >> bench.out
	$(GO) test -run=NONE -bench='BenchmarkSim|BenchmarkStepChange' -benchmem -benchtime=5x ./internal/sim >> bench.out
	@cat bench.out
	$(GO) run ./cmd/benchjson < bench.out > BENCH_$(PR).json.tmp
	mv BENCH_$(PR).json.tmp BENCH_$(PR).json
	@rm -f bench.out
	@echo "wrote BENCH_$(PR).json"

# benchfull runs every benchmark in the repo briefly.
benchfull:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
