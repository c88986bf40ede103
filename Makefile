# Development targets. `make check` is the pre-commit gate CI expects;
# ./check.sh runs the same gate.

GO ?= go

.PHONY: check fmt fmt-check vet build test test-race bench-test bench bench-smoke bench-regression bench-baseline bench-trend profile conformance fuzz-smoke chaos-smoke checkpoint-smoke serve-smoke bitexact docs-check policy-registry-check golden-update

# The gate's steps run one at a time, in the order check lists them, even
# under -j: each later step assumes the earlier ones passed.
.NOTPARALLEL:

check: fmt-check docs-check policy-registry-check vet build test-race bench-test bench-smoke bench-regression conformance fuzz-smoke chaos-smoke checkpoint-smoke serve-smoke ## the full pre-commit gate, every step below in this order
	@echo OK

fmt: ## rewrite formatting in place
	gofmt -w .

fmt-check: ## fail on any file gofmt would rewrite
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "unformatted files:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# bench/ is a nested module, so the root ./... skips it. Its tests replay
# every registered policy across a checkpoint and resume.
bench-test: ## vet + test the nested benchmark module
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench: ## quick-mode experiment benchmarks
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Sub-warehouse sizes only: the 65536-node entry runs (gated) in
# bench-regression, the next step of check; repeating it here would double
# its ~30 s cost for no extra coverage.
bench-smoke: ## one-iteration fleet-stepping benchmark (compile + run sanity)
	$(GO) test -run=NONE -bench='FleetStep/nodes=(16|256|2048)$$/' -benchtime=1x ./internal/sim/

bench-regression: ## run the fixed suite and fail on regressions vs BENCH_baseline.json
	$(GO) run ./cmd/baatbench -bench-compare BENCH_baseline.json

bench-baseline: ## re-measure and overwrite BENCH_baseline.json (commit the result)
	$(GO) run ./cmd/baatbench -bench-json BENCH_baseline.json

bench-trend: ## append a suite run (with git SHA) to BENCH_history.jsonl
	./scripts/bench_trend.sh

profile: ## CPU+heap profile of the 65536-node serial fleet step (then: go tool pprof cpu.pprof)
	$(GO) test -run=NONE -bench='FleetStep/nodes=65536/workers=1$$' -benchtime=2x \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/sim/
	@echo "profile: go tool pprof -top cpu.pprof   # or -http=:8080 for the flame graph"

# The shared battery-model contract (internal/battery/modeltest) across all
# three tiers, plus a short fuzz pass over every chemistry's step path.
conformance: ## shared battery-model contract across all tiers + chemistry fuzz smoke
	$(GO) test -count=1 -run 'TestModelConformance' ./internal/battery/
	$(GO) test -run=NONE -fuzz=FuzzModelStep -fuzztime=5s ./internal/battery/

# FuzzResume runs with minimization off: with multi-KB checkpoint inputs the
# default 60 s minimization of each new interesting input stalls the run.
fuzz-smoke: ## short fuzz passes over the aging-metric tracker, the checkpoint decoder, the run-spec decoder and the policy and battery-mix parsers
	$(GO) test -run=NONE -fuzz=FuzzAgingMetrics -fuzztime=5s ./internal/aging/
	$(GO) test -run=NONE -fuzz='^FuzzResume$$' -fuzztime=5s -fuzzminimizetime=0 ./internal/sim/
	$(GO) test -run=NONE -fuzz='^FuzzRunSpec$$' -fuzztime=5s ./internal/serve/
	$(GO) test -run=NONE -fuzz='^FuzzParsePolicySpec$$' -fuzztime=5s ./internal/core/
	$(GO) test -run=NONE -fuzz='^FuzzParseBatteryMix$$' -fuzztime=5s ./cmd/baatsim/

chaos-smoke: ## faulted golden trace, every fault kind, degraded-mode scenarios
	$(GO) test -count=1 -run 'TestGoldenTraceFaulted$$|TestEveryFaultKindChangesRun|TestDegradedModeScenarios' ./internal/sim/

checkpoint-smoke: ## checkpoint a baatsim run mid-flight, resume it, diff the reports
	./scripts/checkpoint_smoke.sh

serve-smoke: ## start the baatsim serve daemon, fork a run over the API, diff the results
	./scripts/serve_smoke.sh

# Not part of check: it compares the working tree with the last commit, and
# in CI the two are the same tree.
bitexact: ## six checkpointed baatsim runs, byte-compared between HEAD and the working tree
	./scripts/bitexact_check.sh

docs-check: ## docs linked from README, links resolve, named dirs exist, telemetry catalogue documented
	./scripts/docs_check.sh

policy-registry-check: ## no core.Kind enum or policy-name dispatch outside internal/core, internal/core imports neither fleet nor sim, no battery-tier dispatch in fleet, node or sim, and no engine-config or weather assembly in cmd/baatsim
	./scripts/policy_registry_check.sh

golden-update: ## regenerate the 30-day golden trace fixtures (clean + faulted)
	$(GO) test ./internal/sim/ -run 'TestGoldenTrace$$|TestGoldenTraceFaulted$$' -update
