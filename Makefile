# Tier-1 verification is `make check`; each sub-target is also callable
# on its own. `make vet` runs the project-specific determinism analyzers
# (see DESIGN.md "Determinism invariants").

GO ?= go
FUZZTIME ?= 15s
# Experiment driven by `make profile`; override e.g. PROFILE_RUN=fig1,fig5.
PROFILE_RUN ?= fig4

.PHONY: all build test test-race race vet lint-baseline fmt fuzz check clean profile bench-smoke bench-dispatcher bench-test obs-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Focused race check over the packages that share state across the
# parallel runner's worker pool, plus the decision-plane packages (fast
# enough for the inner dev loop; `make race` still covers everything).
test-race:
	$(GO) test -race ./internal/parallel ./internal/experiments ./internal/core ./internal/cluster

race:
	$(GO) test -race ./...

# Project-specific static analysis: nodeterminism, maporder, floateq,
# errcheckio, shadowbuiltin, hotpathalloc, floatfold (internal/analysis,
# driven by cmd/vetrepro). The baseline is empty by policy (DESIGN.md
# §12): fix real findings, or annotate deliberate ones with
# //repro:allow:<analyzer> and a reason.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/vetrepro -baseline .vetrepro-baseline.json ./...

# Deliberately regenerate the accepted-findings baseline after a sweep
# that surfaces pre-existing debt. Burn entries down; do not rubber-
# stamp new findings in.
lint-baseline:
	$(GO) run ./cmd/vetrepro -write-baseline .vetrepro-baseline.json ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Short fuzzing sessions over the properties the simulator depends on:
# predictor symmetry/no-panic, aggregate/Predict bit-identity (the
# dispatcher's O(1) admission probes), the admission pool against a
# reference model (its completion timeline included), event-queue pop
# ordering, the cluster planner's all-or-nothing gang accounting,
# mutated stream snapshot fields (refused, or resumed without a panic),
# the stream's event encoder against json.Marshal, the flight
# recorder's ring and spill order, the /ingest response bytes against a
# replayed stream, and arbitrary /ingest bodies (a refused batch leaves
# the stream as it was).
# Native Go fuzzing takes one target per invocation.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzPredictInterference -fuzztime=$(FUZZTIME) ./internal/interference
	$(GO) test -run='^$$' -fuzz=FuzzAggregateMatchesPredict -fuzztime=$(FUZZTIME) ./internal/interference
	$(GO) test -run='^$$' -fuzz=FuzzAdmitExcludingMatchesRemove -fuzztime=$(FUZZTIME) ./internal/interference
	$(GO) test -run='^$$' -fuzz=FuzzPool -fuzztime=$(FUZZTIME) ./internal/admission
	$(GO) test -run='^$$' -fuzz=FuzzEventQueue -fuzztime=$(FUZZTIME) ./internal/eventq
	$(GO) test -run='^$$' -fuzz=FuzzGangAdmission -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzFindFit -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzRestoreStreamer -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzAppendEvent -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzFlightRing -fuzztime=$(FUZZTIME) ./internal/obs
	$(GO) test -run='^$$' -fuzz=FuzzIngestResponse -fuzztime=$(FUZZTIME) ./cmd/gpusched
	$(GO) test -run='^$$' -fuzz=FuzzIngestHTTP -fuzztime=$(FUZZTIME) ./cmd/gpusched

# One-command pprof workflow for perf PRs: profile a real experiment run
# end to end, then inspect with `go tool pprof cpu.pprof` / `mem.pprof`.
profile:
	$(GO) run ./cmd/benchrepro -run $(PROFILE_RUN) -cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	@echo "wrote cpu.pprof and mem.pprof; inspect with: $(GO) tool pprof cpu.pprof"

# Compile-and-run smoke over the hot-path benchmarks so they cannot
# silently rot (CI runs this; -benchtime=1x and the small fleet size
# keep it fast). Full fleet numbers live in BENCH_dispatcher.json.
# The final step cross-checks the streaming dispatcher end to end: the
# batch plan and the streamed path must print the same dispatch-log
# digest (DESIGN.md §14).
bench-smoke:
	$(GO) test -run='^$$' -bench=EngineSteadyState -benchtime=1x ./internal/gpusim
	$(GO) test -run='^$$' -bench='BenchmarkScheduleOnline/2k-16gpu|BenchmarkBuildPlan/2k-16gpu' -benchtime=1x ./internal/core
	$(GO) run ./cmd/gpusched bench-cluster -cluster 4x2 -workflows 2000 > /dev/null
	@d1=$$($(GO) run ./cmd/gpusched bench-online -fleet 2000x16 | sed -n 's/.*dispatch digest //p'); \
	d2=$$($(GO) run ./cmd/gpusched bench-online -fleet 2000x16 -stream | sed -n 's/.*dispatch digest //p'); \
	if [ -z "$$d1" ] || [ "$$d1" != "$$d2" ]; then \
		echo "batch/streamed dispatch digest mismatch: '$$d1' vs '$$d2'"; exit 1; \
	fi; \
	echo "batch+streamed dispatch identity OK ($$d1)"

# Regenerate BENCH_dispatcher.json: the working tree against BASE
# (default HEAD), both measured here; see the script's header.
bench-dispatcher:
	bash scripts/bench_dispatcher.sh

# Live-endpoint smoke: benchrepro with telemetry serving, /healthz and
# /debug/pprof probed, /metrics diffed against the committed golden
# snapshot (CI runs this; see scripts/obs_smoke.sh to regenerate).
obs-smoke:
	bash scripts/obs_smoke.sh

# The benchmark harness is its own module (bench/go.mod), so the root
# `go test ./...` never builds it; -short skips its served-path smoke.
bench-test:
	cd bench && $(GO) test -short ./...

check: fmt build vet test bench-test race

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof
