# Gates for this repository. `make tier1` is the seed contract; `make
# race` is the concurrency gate guarding the parallel experiment
# scheduler and the result store every session resolves its cells
# through (internal/exp/sched.go, internal/exp/cache.go) — run it
# before touching anything under internal/exp.

.PHONY: tier1 vet lint cover race race-short fuzz bench-parallel bench-test smoke spec-smoke

# Build + full test suite (the tier-1 contract from ROADMAP.md).
tier1:
	go build ./... && go test ./...

vet:
	go vet ./...

# Static analysis: go vet plus the repo's own analyzer suite
# (internal/analysis, DESIGN.md §8 "Enforced invariants") — nopanic,
# hotpathalloc, errwrap, determinism, servectx, codecstrict and
# staleallow, every name resolved through a module-local go/types
# loading layer, with positioned file:line:col: [check] diagnostics.
# CI additionally budgets this at 60s on one core (BenchmarkLintModule
# measures the same pipeline).
lint: vet
	go run ./cmd/ebcplint ./...

# Statement-coverage floor for the measurement-critical packages: the
# metrics layer (every report number flows through it), the simulator
# core, the paper's contribution (the EBCP control in internal/core and
# its correlation table in internal/corrtab), the prefetcher contenders
# (every reported delta comes from one of them) and the registry, the one
# table every caller builds them through, the workload generators
# (every simulated access comes from one of them), and the analyzer suite
# (a lint gate with untested paths is a gate that silently stops
# gating). A drop below 70% means new code shipped without tests.
COVER_FLOOR := 70
cover:
	@fail=0; \
	for pkg in ./internal/metrics ./internal/sim ./internal/core ./internal/corrtab ./internal/prefetch ./internal/registry ./internal/workload ./internal/analysis; do \
		pct=$$(go test -cover $$pkg | awk '/coverage:/ { sub("%", "", $$5); print $$5 }'); \
		if [ -z "$$pct" ]; then \
			echo "cover: no coverage line for $$pkg (tests failed?)"; fail=1; \
		elif [ $$(printf '%.0f' "$$pct") -lt $(COVER_FLOOR) ]; then \
			echo "cover: $$pkg at $$pct% is below the $(COVER_FLOOR)% floor"; fail=1; \
		else \
			echo "cover: $$pkg $$pct% (floor $(COVER_FLOOR)%)"; \
		fi; \
	done; \
	exit $$fail

# Full suite under the race detector (plus the lint gate and the
# coverage floor). Slow — roughly ten minutes on one core; the
# determinism, single-flight and cancellation tests in
# internal/exp/parallel_test.go are the interesting part. The three
# slowest shape tests skip themselves under -race (see
# internal/exp/race_on_test.go): their cells still run under race via
# TestCanonicalGoldens, and the shape assertions hold in plain `go
# test`, so the package fits the default timeout on one core.
race: lint cover
	go test -race ./...

# The quick pre-push variant: skips the three slowest experiment shape
# tests (Fig8, CMP, ablations) but keeps every concurrency test.
race-short: lint
	go test -race -short ./...

# Fuzz each target that has a committed seed corpus
# (<pkg>/testdata/fuzz/<target>/) for 10s, one target per run, since
# `go test -fuzz` accepts only one: the strict schema decoders, and the
# correlation table against its reference model over mixed-width lines.
fuzz:
	go test -run '^$$' -fuzz '^FuzzReportDecode$$' -fuzztime 10s ./internal/metrics
	go test -run '^$$' -fuzz '^FuzzDecodeRobust$$' -fuzztime 10s ./internal/spec
	go test -run '^$$' -fuzz '^FuzzRunRequestDecode$$' -fuzztime 10s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzStatsDecode$$' -fuzztime 10s ./internal/serve
	go test -run '^$$' -fuzz '^FuzzTableVsReference$$' -fuzztime 10s ./internal/corrtab

# Serial vs parallel session wall-clock comparison (speedup needs >1 CPU).
bench-parallel:
	go test -bench 'BenchmarkSession(Serial|Parallel)' -benchtime 1x -count 1

# Vet and test the end-to-end benchmark (bench/, BENCHMARK.json). It is a
# module of its own, so the root `go test ./...` does not reach it.
bench-test:
	cd bench && go vet ./... && go test ./...

# Daemon smoke: boot ebcpd, POST an experiment and an inline
# ebcp.spec/v1, assert valid reports, a cache hit on the identical
# repeat, and a clean SIGTERM drain — the same contract CI's "daemon
# smoke" step runs.
smoke:
	go test ./cmd/ebcpd -run TestDaemonSmoke -count 1 -v

# Spec smoke: run a committed canonical spec file end-to-end through
# `ebcpexp -spec` (strict decode → registry resolution → grid render)
# — the same contract CI's "spec smoke" step runs.
spec-smoke:
	go test ./cmd/ebcpexp -run TestSpecFileRun -count 1 -v
