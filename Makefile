GO ?= go

.PHONY: all build test race ci fuzz bench microbench diagnose clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race tier: the controller serves conditional GETs while regenerating and
# the agent runs three loops; everything must be race-clean.
race:
	$(GO) test -race ./...

ci:
	sh scripts/ci.sh

fuzz:
	FUZZ=1 sh scripts/ci.sh

# The pipeline benchmark: four workloads end to end plus the per-layer
# table (bench/README.md). The only way numbers enter the repo.
bench:
	sh bench/run.sh --workload all

# Every Benchmark* function under internal/, for measuring one layer while
# working on it.
microbench:
	$(GO) test -run '^$$' -bench . -benchmem -timeout 30m ./internal/...

# Root-cause localization experiment: injects a spine silent drop plus a
# ToR black-hole and requires the diagnosis subsystem to locate both.
diagnose:
	$(GO) run ./cmd/pingmesh-diagnose -check

clean:
	$(GO) clean -testcache
