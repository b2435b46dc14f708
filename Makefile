GO ?= go

.PHONY: all build test race ci fuzz bench bench-ingest bench-fleet bench-portal bench-trace bench-controlplane bench-analysis bench-upload bench-diagnosis bench-telemetry churn uploadsim telemsim diagnose clean

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

bench:
	$(GO) test -bench . -benchmem ./internal/core ./internal/controller

# Ingest hot path: codec + streaming scope engine throughput (MB/s) and
# allocation profile. BENCH_PR2.json records the tracked numbers.
bench-ingest:
	$(GO) test -run '^$$' -bench 'BenchmarkScanner|BenchmarkDecodeBatch|BenchmarkEncodeBatch|BenchmarkScopeRun|BenchmarkEngineRun' \
		-benchmem ./internal/probe ./internal/scope

# Simulation hot path: fleet-runner throughput (probes/sec) and the
# plan-cached vs reference probe cost. BENCH_PR3.json records the tracked
# numbers.
bench-fleet:
	$(GO) test -run '^$$' -bench 'BenchmarkFleetRun$$|BenchmarkProbe' \
		-benchmem ./internal/fleet ./internal/netsim

# Read-side serving hot path: cached SLA/heatmap reads, 304 revalidations,
# /metrics scrapes, and the per-cycle snapshot render cost. BENCH_PR4.json
# records the tracked numbers.
bench-portal:
	$(GO) test -run '^$$' -bench 'BenchmarkPortal|BenchmarkServe|BenchmarkExposition' \
		-benchmem ./internal/portal ./internal/httpcache ./internal/metrics

# Tracing overhead: the sampling decision when tracing is off/unsampled
# (must be one atomic load), the cost of a sampled span, and the in-flight
# probe table's ingest-side scan. BENCH_PR5.json records the tracked
# numbers.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkTracer|BenchmarkMatchProbe|BenchmarkHasActiveProbes' \
		-benchmem ./internal/trace

# Control-plane hot path: cached delta serving (must be zero-alloc),
# conditional-GET revalidation, and full-body serving. BENCH_PR6.json
# records the churn-harness numbers these microbenchmarks back.
bench-controlplane:
	$(GO) test -run '^$$' -bench 'BenchmarkServeDelta|BenchmarkServeFull|BenchmarkServeGzip|BenchmarkServeNotModified' \
		-benchmem ./internal/controller

# Analysis hot path: the per-record fold cost and the partial merge. The
# pipeline benchmark (bench/) reports them end to end as
# scope.fold_ns_per_entry and dsa.cycle10_ms_p50.
bench-analysis:
	$(GO) test -run '^$$' -bench 'BenchmarkFoldExtent|BenchmarkPartialMerge' \
		-benchmem ./internal/scope

# Upload hot path: sketch/binary encode + scan microbenchmarks plus the
# fleet differential sweep (sketch uploads vs raw CSV). BENCH_PR8.json
# records the tracked numbers.
bench-upload:
	$(GO) test -run '^$$' -bench 'BenchmarkAppendBinaryBatch|BenchmarkBinaryScan|BenchmarkAppendBatch' \
		-benchmem ./internal/probe
	$(MAKE) uploadsim

# Diagnosis hot paths: vote ingest per probe record (must be zero-alloc
# once warm), the greedy explain-away ranking, the per-TTL loss sweep, and
# the full per-pair evidence chain.
bench-diagnosis:
	$(GO) test -run '^$$' -bench 'BenchmarkVoteIngest|BenchmarkRankGreedy|BenchmarkDiagnoseSweep|BenchmarkDiagnoseChain' \
		-benchmem ./internal/diagnosis

# Telemetry hot paths: PMT1 encode and collector ingest microbenchmarks
# (both must be zero-alloc once warm) plus the million-agent harness.
# BENCH_PR10.json records the tracked numbers.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'BenchmarkEncode|BenchmarkIngest' \
		-benchmem ./internal/telemetry
	$(MAKE) telemsim

# Root-cause localization experiment: injects a spine silent drop plus a
# ToR black-hole and requires the diagnosis subsystem to locate both.
diagnose:
	$(GO) run ./cmd/pingmesh-diagnose -check

# Million-agent churn harness: delta vs full-body serving through a
# rolling topology update with replica failover. Writes BENCH_PR6.json.
churn:
	$(GO) run ./cmd/pingmesh-churnsim -agents 1000000 -podsets 50 -out BENCH_PR6.json

# Fleet upload differential: the same probes shipped as raw CSV and as
# sketch/binary batches, compared on bytes, percentiles, and SLA parity.
# Writes BENCH_PR8.json.
uploadsim:
	$(GO) run ./cmd/pingmesh-uploadsim -servers 20000 -peers 8 -out BENCH_PR8.json

# Million-agent telemetry harness: PMT1 reports through the real collector
# with rollup parity checking. Writes BENCH_PR10.json.
telemsim:
	$(GO) run ./cmd/pingmesh-telemsim -agents 1000000 -check -out BENCH_PR10.json

clean:
	$(GO) clean -testcache
