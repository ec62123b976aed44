# Developer entry points. `make bench` refreshes the "current" entry of
# BENCH_results.json so the perf trajectory of the figure and simulator
# benchmarks is tracked across PRs; the "seed-baseline" entry records the
# seed repo and is never overwritten by it. `make bench-gate` fails when
# a hot benchmark regresses beyond GATE_TOL against the committed
# "ci-baseline" entry — in ns/op, allocs/op, or (for the simulator
# benchmarks, which report it) events/sec (refresh the baseline with
# `make bench-baseline` whenever a PR intentionally moves the needle).
# SimulatorEventRate matches all five variants: the perfect, Lossy and
# Faulty X-MAC paths, the LPL idle-poll path and the LMAC slot-schedule
# path are gated together.
# OptimizeCold gates the cold-solve path (a full bargaining solve per
# request); SimulateScenario gates a short simulate miss of a builtin
# scenario, whose setup (materialize, stamp links, build the run)
# outweighs its event loop. ModelEnergy (one model evaluation, ~10 ns)
# is tracked but not gated: its timing swings more than GATE_TOL, and
# the gated OptimizeCold already catches a kernel regression.

GO         ?= go
BENCH      ?= Figure|Frontier|OptimizeCold|ModelEnergy|Sweep|SimValidation|SimulatorEventRate(Lossy|Faulty|LPL|LMAC)?|SimulateBatch|SimulateScenario|ServeOptimizeCached|JobsSubmitPoll
BENCHTIME  ?= 1s
GATE_BENCH ?= SimulatorEventRate(Lossy|Faulty|LPL|LMAC)?|SimulateScenario|ServeOptimizeCached|JobsSubmitPoll|OptimizeCold
GATE_TOL   ?= 0.15

FUZZTIME ?= 30s

.PHONY: build test race vet fmt lint lint-escape escape-golden api-golden gate-coverage print-gate-bench perfbench-check examples fuzz bench bench-gate bench-baseline suite golden suite-golden check fix-check loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
	  echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The repo's own analyzer suite (cmd/edvet): deterministic core,
# frame lifetimes, wire tags, context discipline, hot-path allocation
# hygiene. Non-zero on any diagnostic, including malformed or
# unexplained //edvet:ignore directives. See the README's "Invariants
# & static analysis" section.
lint: vet
	$(GO) run ./cmd/edvet ./...

# The compiler-fact gate: escape/heap decisions inside //edvet:hotpath
# functions must match the committed golden (the pinned toolchain in
# go.mod keeps the facts runner-stable). Fails on any drift.
lint-escape:
	$(GO) run ./cmd/edvet -escape

# Regenerate the escape golden after an intentional hot-path change —
# the mirror of `make golden` for compiler facts. Commit the result.
escape-golden:
	$(GO) run ./cmd/edvet -escape -update

# Regenerate the API-surface golden after an intentional change to the
# root package's exported surface. Commit the result.
api-golden:
	$(GO) run ./cmd/edvet -update

# Guard against a GATE_BENCH typo silently gating nothing: every
# top-level alternative of the gate regexp must match a benchmark that
# actually exists in the test binaries.
gate-coverage:
	$(GO) test -run '^$$' -list 'Benchmark.*' ./... \
	  | $(GO) run ./tools/benchjson -covered '$(GATE_BENCH)'

# Print the gate regexp, so CI re-records the base commit's benchmarks
# with exactly the set the gate then compares.
print-gate-bench:
	@echo '$(GATE_BENCH)'

# The repo benchmark is its own module (perfbench/go.mod), so the root
# build never compiles it: vet and test it against this checkout.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Run every program under examples/ from the repo root (scenariofile
# reads its bundled spec by a root-relative path); a non-zero exit from
# any of them fails the target.
examples:
	@for d in examples/*/; do \
	  echo "go run ./$${d%/}"; \
	  $(GO) run ./$${d%/} > /dev/null || exit 1; \
	done

check: fmt lint lint-escape build test suite examples perfbench-check

# What to run before pushing a fix: format gate, vet + edvet, the
# escape golden, build, tests, the suite golden, the examples, the
# benchmark module. Alias of check, named for intent.
fix-check: check

# The two line counts a simplifying change reports: tracked non-test Go
# and tracked test Go, both outside the benchmark module in perfbench/.
loc:
	@echo "non-test Go: $$(git ls-files -z -- '*.go' ':!:*_test.go' ':!:perfbench/' | xargs -0 cat | wc -l)"
	@echo "test Go:     $$(git ls-files -z -- '*_test.go' ':!:perfbench/' | xargs -0 cat | wc -l)"

# Fuzz the strict scenario parser, then the job store's reload of spill
# files, FUZZTIME each (bump it for longer local campaigns; CI runs the
# default as a smoke job). Crashers land in the package's testdata/fuzz/
# — commit them as regression inputs.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzReload -fuzztime $(FUZZTIME) ./internal/jobs

bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) . \
	  | $(GO) run ./tools/benchjson -o BENCH_results.json -label current \
	      -note "make bench ($(BENCH), $(BENCHTIME))"

bench-gate:
	$(GO) test -run '^$$' -bench '$(GATE_BENCH)' -benchmem -benchtime $(BENCHTIME) -count 3 . \
	  | $(GO) run ./tools/benchjson -o BENCH_results.json -label ci-current \
	      -note "make bench-gate ($(GATE_BENCH), $(BENCHTIME) x3)" \
	      -gate ci-baseline -gate-match '$(GATE_BENCH)' -gate-tol $(GATE_TOL)

bench-baseline:
	$(GO) test -run '^$$' -bench '$(GATE_BENCH)' -benchmem -benchtime $(BENCHTIME) -count 3 . \
	  | $(GO) run ./tools/benchjson -o BENCH_results.json -label ci-baseline \
	      -note "make bench-baseline ($(GATE_BENCH), $(BENCHTIME) x3)"

# The scenario-suite determinism gate: regenerate the full builtin
# matrix and fail on any byte drift from the committed golden report.
suite:
	$(GO) run ./cmd/edsim suite -check cmd/edsim/testdata/suite_golden.json

# Regenerate the committed suite golden deterministically. Every PR that
# intentionally moves suite output runs this and commits the result; CI
# runs it too and fails on a dirty diff, so the golden can never drift
# from the code that claims to produce it.
golden:
	$(GO) run ./cmd/edsim suite -out cmd/edsim/testdata/suite_golden.json

# Back-compat alias for the old target name.
suite-golden: golden
