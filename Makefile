GO ?= go

.PHONY: help check build vet lint vet-json fmt-check test race bench bench-smoke bench-profile alloc-gate fuzz-smoke clockcheck chaos chaos-smoke crash-sweep serve-smoke scrub-smoke shard-smoke golden examples

help: ## list targets (static analysis lives in lint = icash-vet)
	@awk -F':.*## ' '/^[a-z-]+:.*## /{printf "%-12s %s\n", $$1, $$2}' Makefile

check: fmt-check vet lint build race clockcheck bench-smoke alloc-gate crash-sweep serve-smoke scrub-smoke shard-smoke ## everything CI's check job runs

build: ## go build ./...
	$(GO) build ./...

vet: ## stdlib go vet
	$(GO) vet ./...

lint: ## icash-vet: the 9 repo-specific analyzers, strict (stale suppressions fail), baselined
	$(GO) run ./cmd/icash-vet -strict -baseline vet.baseline ./...

vet-json: ## icash-vet findings as an icash-vet/1 JSON document (machine-readable)
	$(GO) run ./cmd/icash-vet -json -strict -baseline vet.baseline ./...

fmt-check: ## fail on gofmt drift
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test: ## go test ./...
	$(GO) test ./...

race: ## go test -race ./...
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

bench-smoke: ## one iteration of every figure benchmark
	$(GO) test -bench=Fig -benchtime=1x -run '^$$' .

bench-profile: ## full figure suite with CPU + heap profiles (cpu.prof, mem.prof)
	$(GO) run ./cmd/icash-bench -run all -cpuprofile cpu.prof -memprofile mem.prof
	@echo "profiles written: cpu.prof mem.prof (inspect with: go tool pprof cpu.prof)"

alloc-gate: ## hot-path allocation gates + allocs/op benchmarks (must run WITHOUT -race)
	$(GO) test -run 'TestAllocGate' -count=1 ./internal/delta/ ./internal/blockdev/ ./internal/core/
	$(GO) test -bench 'AppendEncode|AppendDecode|Size' -benchtime 1000x -benchmem -run '^$$' ./internal/delta/

fuzz-smoke: ## 10s per fuzz target, seeded from testdata corpora
	$(GO) test ./internal/delta -fuzz FuzzDeltaRoundTrip -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzLogReplay -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzJournalReplay -fuzztime 10s
	$(GO) test ./internal/server -fuzz FuzzFrameRoundTrip -fuzztime 10s
	$(GO) test ./internal/server -fuzz FuzzSessionBytes -fuzztime 10s

crash-sweep: ## crash-point recovery sweeps (fail-stop + fail-slow, journal-audited)
	$(GO) test -count=1 -run 'TestCrash|TestNoCrashBaseline' ./internal/fault/crashtest/

serve-smoke: ## block-service battery under -race: conformance, served-vs-inproc, crash sweep
	$(GO) test -race -count=1 ./internal/server/

clockcheck: ## sim tests with the runtime clock-ownership assertion
	$(GO) test -tags clockcheck ./internal/sim/

chaos: ## 20-seed chaos soak (fail-slow + fail-stop, oracle-checked)
	$(GO) run ./cmd/icash-bench -chaos

scrub-smoke: ## seeded silent-corruption battery under -race: checksums, scrubber, verified repair
	$(GO) test -race -count=1 -run 'TestChaosSilent|TestChaosScrub' ./internal/fault/chaos/
	$(GO) run ./cmd/icash-bench -bitrot -seeds 5 -chaosops 1000

chaos-smoke: ## fixed-seed chaos battery under the race detector
	$(GO) test -race -count=1 -run 'TestChaos|TestDetector|TestSchedule' ./internal/fault/...

shard-smoke: ## sharded-controller battery under -race: routing, scoreboard equality across worker counts, shard-scoped chaos, scaling sweep
	$(GO) test -race -count=1 -run 'TestShard|TestRunBenchmarkSharded|TestBuildSharded|TestStatsAccumulate' ./internal/core/ ./internal/harness/
	$(GO) test -race -count=1 -run 'TestShardRouter|TestChaosShard' ./internal/server/ ./internal/fault/chaos/
	$(GO) run ./cmd/icash-bench -shardsweep -ops 4000

golden: ## rewrite the scoreboard, sweep and chaos goldens (testdata/*.golden); explain every moved row in CHANGES.md
	$(GO) test -count=1 -run '^(TestScoreboardGolden|TestSweepGolden)$$' ./internal/harness/ -update
	$(GO) test -count=1 -run '^TestServeSweepGolden$$' ./internal/server/ -update
	$(GO) test -count=1 -run '^TestChaosGolden$$' ./internal/fault/chaos/ -update

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/recovery
	$(GO) run ./examples/oltp
	$(GO) run ./examples/vmimages
	$(GO) run ./examples/bitrot
