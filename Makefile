# Developer entry points mirroring the CI jobs (ci.yml runs these same
# commands, so a green `make ci` locally means a green workflow).

# bash + pipefail so `go test | tee` recipes fail when go test fails,
# not when tee does.
SHELL         := /bin/bash
.SHELLFLAGS   := -o pipefail -ec

GO            ?= go
BENCH_COUNT   ?= 5
BENCH_TXT     ?= bench.txt
BENCH_OUT     ?= BENCH_CURRENT.json
BENCH_BASELINE?= BENCH_BASELINE.json
MAX_REGRESS   ?= 0.30
# Default persistent artifact-store directory of the CLIs' -store flag
# convention (gitignored; wiped by clean-store).
STORE_DIR     ?= .cnfet-store
# Total-coverage gate; CI fails below this (see ci.yml coverage job).
# Measured 75.6% when recorded — keep it at least here.
COVER_MIN     ?= 75.0

# Spice-dominated benchmarks profiled by bench-profile (the solver hot
# path: characterization, critical-line certification, cold sweeps, the
# full-adder flow).
PROFILE_BENCH ?= CharacterizationGrid|Fig4AOI31|SweepColdPoints|StoreDiskCold

# Packages exempt from the served check: the dense-LU test oracle that
# the solver parity tests compare against.
SERVED_ALLOW  := cnfetdk/internal/spice/spicetest

.PHONY: all build test race vet fmt served cover bench bench-check bench-baseline bench-profile clean-store ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# served fails when an internal package is in the import closure of no
# binary, example or the bench/ harness: code that only its own tests
# reach is deleted, not kept.
served:
	@deps=$$( { $(GO) list -deps ./cmd/... ./examples/...; cd bench && $(GO) list -deps ./...; } | sort -u); \
	unserved=$$($(GO) list ./internal/... | grep -vxF -e "$$deps" -e "$(SERVED_ALLOW)" || true); \
	if [ -n "$$unserved" ]; then \
		echo "internal packages no binary, example or bench/ imports:" >&2; echo "$$unserved" >&2; exit 1; \
	fi

cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t+0 < min+0) { printf "total coverage %.1f%% is below the %.1f%% gate\n", t, min; exit 1 } \
		printf "total coverage %.1f%% (gate %.1f%%)\n", t, min }'

# bench runs the suite and reduces it to medians (BENCH_CURRENT.json);
# bench-check additionally gates against the committed baseline —
# identical to the CI benchmark-regression job.
bench:
	$(GO) test -bench . -benchmem -count=$(BENCH_COUNT) -run '^$$' | tee $(BENCH_TXT)
	$(GO) run ./cmd/benchreg -in $(BENCH_TXT) -out $(BENCH_OUT)

bench-check:
	$(GO) test -bench . -benchmem -count=$(BENCH_COUNT) -run '^$$' | tee $(BENCH_TXT)
	$(GO) run ./cmd/benchreg -in $(BENCH_TXT) -out $(BENCH_OUT) \
		-baseline $(BENCH_BASELINE) -max-regress $(MAX_REGRESS)

# bench-baseline refreshes the committed baseline (run on a quiet
# machine, then commit BENCH_BASELINE.json).
bench-baseline:
	$(GO) test -bench . -benchmem -count=$(BENCH_COUNT) -run '^$$' | tee $(BENCH_TXT)
	$(GO) run ./cmd/benchreg -in $(BENCH_TXT) -out $(BENCH_BASELINE)

# bench-profile produces CPU and allocation pprof artifacts from the
# spice-dominated benchmarks (bench-cpu.pprof / bench-mem.pprof, plus
# the cnfetdk.test binary pprof needs to symbolize them). The CI bench
# job uploads all three; locally:
#   go tool pprof cnfetdk.test bench-cpu.pprof
bench-profile:
	$(GO) test -bench '$(PROFILE_BENCH)' -run '^$$' -count=1 \
		-cpuprofile bench-cpu.pprof -memprofile bench-mem.pprof -o cnfetdk.test

# clean-store wipes the local persistent artifact store (the default
# -store directory of cnfetd/cnfetsweep/cnfetdk). Safe: everything in it
# is a cache, recomputed on demand.
clean-store:
	rm -rf $(STORE_DIR)

ci: fmt build vet served test race cover bench-check
