# Development and CI entry points. CI (.github/workflows/ci.yml) invokes
# exactly these targets so local runs and the pipeline cannot drift.

GO ?= go

.PHONY: build build-bins test test-short test-race test-nbbench vet lint fuzz-smoke fmt fmt-check ci bench bench-compare profile serve smoke

build:
	$(GO) build ./...

# Link every cmd/* and examples/* binary (output discarded): facade
# refactors can never silently break the CLIs or examples.
build-bins:
	@for d in ./cmd/* ./examples/*; do \
		echo "build $$d"; \
		$(GO) build -o /dev/null $$d || exit 1; \
	done

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# nbbench (the end-to-end benchmark, BENCHMARK.json) is its own module, so
# the root `go test ./...` never reaches its smoke and digest tests.
test-nbbench:
	cd nbbench && $(GO) test ./...

# nbbench compiles against the facade and internal server APIs, so vet
# its module too.
vet:
	$(GO) vet ./...
	cd nbbench && $(GO) vet ./...

# Invariant linting (docs/LINTS.md): the in-tree nanolint suite always
# runs; staticcheck and govulncheck join in when installed (they are not
# vendored, so offline environments skip them rather than fail).
lint:
	$(GO) run ./cmd/nanolint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipped"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipped"; \
	fi

# Short-budget fuzz pass over every hostile-input parser (docs/LINTS.md).
# Each target also runs its seed corpus as a plain test in `make test`.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzConfigUnmarshalJSON$$' -fuzztime $(FUZZTIME) ./internal/nano
	$(GO) test -run '^$$' -fuzz '^FuzzParseQLRU$$' -fuzztime $(FUZZTIME) ./internal/sim/policy
	$(GO) test -run '^$$' -fuzz '^FuzzParseMode$$' -fuzztime $(FUZZTIME) ./internal/sim/machine
	$(GO) test -run '^$$' -fuzz '^FuzzTraceMatchesStep$$' -fuzztime $(FUZZTIME) ./internal/sim/machine
	$(GO) test -run '^$$' -fuzz '^FuzzReplayPlanMatchesWalk$$' -fuzztime $(FUZZTIME) ./internal/sim/cache
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/perfcfg

# One pass over every benchmark (no test functions) plus stable
# multi-iteration measurements of the gated headlines (step throughput,
# the per-engine trace-mode series, the batch policy kernels, and the
# cache-policy benchmarks), folded into the BENCH_10.json artifact CI
# uploads and gates on. On repeated measurements of one benchmark the
# fastest run wins, so the artifact is comparable across noisy machines.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./... > bench.txt; st=$$?; cat bench.txt; [ $$st -eq 0 ]
	$(GO) test -bench 'BenchmarkStepThroughput|BenchmarkEngineThroughput' -benchtime 2s -count 3 -run '^$$' ./internal/sim/machine > bench-step.txt; st=$$?; cat bench-step.txt; [ $$st -eq 0 ]
	$(GO) test -bench 'BenchmarkPolicyEngineBatch' -benchtime 1s -count 3 -run '^$$' ./internal/sim/policy > bench-batch.txt; st=$$?; cat bench-batch.txt; [ $$st -eq 0 ]
	$(GO) test -bench 'BenchmarkTableIPolicies|BenchmarkFigure1AgeGraph|BenchmarkSetDueling|BenchmarkPolicyCampaign' -benchtime 1x -count 3 -run '^$$' . > bench-cache.txt; st=$$?; cat bench-cache.txt; [ $$st -eq 0 ]
	$(GO) run ./scripts/benchjson -in bench.txt -in bench-step.txt -in bench-batch.txt -in bench-cache.txt -out BENCH_10.json

# Gate: fail on a >10% regression against the committed baseline
# (bench/BENCH_BASELINE.json — see bench/README.md) in step throughput
# (ns/instr, including the per-engine trace-mode series), the batch
# policy kernels, and the wall time (ns/op) of the cache-policy
# simulation benchmarks. The step baseline is the PR 9 trace-engine
# capture, so the gate catches any slide back toward per-µop dispatch;
# the cache and batch baselines are the PR 10 capture (batch probing +
# seq-replay fast path), guarding the campaign-scale speedups.
bench-compare: BENCH_10.json
	$(GO) run ./scripts/benchjson -baseline bench/BENCH_BASELINE.json -against BENCH_10.json \
		-bench BenchmarkStepThroughput \
		-bench BenchmarkEngineThroughput \
		-bench BenchmarkPolicyEngineBatch \
		-bench BenchmarkTableIPolicies \
		-bench BenchmarkFigure1AgeGraph \
		-bench BenchmarkSetDueling \
		-bench BenchmarkPolicyCampaign

BENCH_10.json:
	$(MAKE) bench

# CPU and allocation profiles of the three hot paths — the cache-policy
# sweeps and campaign, the µop step loop and the sched evaluation path —
# written to bench/profiles/ next to the test binaries pprof needs for
# symbols. Reading them: docs/PROFILING.md.
profile:
	mkdir -p bench/profiles
	$(GO) test -bench 'BenchmarkTableIPolicies|BenchmarkFigure1AgeGraph|BenchmarkSetDueling|BenchmarkPolicyCampaign' \
		-benchtime 1x -run '^$$' -o bench/profiles/cache.test \
		-cpuprofile bench/profiles/cache.cpu.pprof \
		-memprofile bench/profiles/cache.alloc.pprof .
	$(GO) test -bench BenchmarkStepThroughput -benchtime 2s -run '^$$' \
		-o bench/profiles/step.test \
		-cpuprofile bench/profiles/step.cpu.pprof \
		-memprofile bench/profiles/step.alloc.pprof ./internal/sim/machine
	$(GO) test -bench BenchmarkEvaluate -benchtime 2s -run '^$$' \
		-o bench/profiles/sched.test \
		-cpuprofile bench/profiles/sched.cpu.pprof \
		-memprofile bench/profiles/sched.alloc.pprof ./internal/sched

# Run the HTTP benchmarking service locally (wire contract: docs/API.md).
serve:
	$(GO) run ./cmd/nanobenchd

# End-to-end service smoke: build nanobenchd, start it, diff live
# /v1/healthz and /v1/run responses against the documented examples,
# drive a sweep through the async jobs API, and scrape /metrics.
smoke:
	bash scripts/serve-smoke.sh

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt-check vet lint build build-bins test-short test test-nbbench
