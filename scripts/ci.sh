#!/bin/sh
# CI / verify flow for the pingmesh repo.
#
# Tiers:
#   1. vet + build + full test suite  (the seed contract)
#   2. full test suite under -race    (controller/agent/core are heavily
#                                      concurrent; the stress tests in
#                                      internal/controller are designed to
#                                      surface handler-vs-regeneration races)
#      Both tiers run every test at GOMAXPROCS 1, 2 and 4: a verdict that
#      depends on how many cores the scheduler has is a bug in the test.
#   2b. benchmark module              (bench/ is a nested module the root
#                                      ./... does not reach; it compiles
#                                      against the root packages, so an API
#                                      removal breaks it silently otherwise;
#                                      then all four workloads at smoke
#                                      scale, the seconds-long wiring check
#                                      of the one harness: sketch-vs-raw
#                                      rows, delta serving through a
#                                      topology update, telemetry rollups
#                                      against exact shadow tallies)
#   2c. flake pass                    (the packages with concurrency-
#                                      sensitive tests, and the three whose
#                                      aggregates — down to the histogram
#                                      type itself — the fold lanes merge
#                                      in whatever order they finish, with
#                                      the package whose splitter decides
#                                      what a lane is dealt
#                                      (FuzzSplitBatches' seeds,
#                                      TestFoldChunksEqualWhole), and
#                                      the two whose state uploads and reads
#                                      share — the vote collector's batched
#                                      ingest, the portal's chain memo —
#                                      five times over
#                                      under -race at GOMAXPROCS 1 and 4;
#                                      the controller's ten passes alone
#                                      outlast go test's 10-minute default)
#   3. alloc-guard smoke              (the streaming scope/probe ingest path
#                                      must stay allocation-free per record;
#                                      the netsim plan-cached probe path and
#                                      the fleet runner's pooled batches must
#                                      stay allocation-free per probe; the
#                                      portal's cached reads, 304
#                                      revalidations and /metrics scrapes
#                                      must stay allocation-free per request;
#                                      a disabled/unsampled tracer must cost
#                                      the probe and ingest paths one atomic
#                                      load and zero allocations; the
#                                      controller's cached delta serving
#                                      must be allocation-free per request;
#                                      the incremental analysis fold path
#                                      must be allocation-free per record;
#                                      PMT1 telemetry encode and collector
#                                      ingest must be allocation-free per
#                                      report in steady state, and ingest of
#                                      the fleet_churn-shaped fleet — 12,000
#                                      agents over 100 pods, one goroutine
#                                      per core — prints its ns/report at
#                                      GOMAXPROCS 1, 2 and 4: ≈2 µs and not
#                                      rising with cores on the 2-vCPU box,
#                                      where one collector mutex and a fold
#                                      per scope level read ≈6 µs at 1 and
#                                      ≈8 µs at 2; the agent's
#                                      record path past its buffer cap must
#                                      stay a ring write: 100,000 records
#                                      take well under a second, minutes if
#                                      drop-oldest copies the buffer; its
#                                      sketch accumulator prints ns/probe
#                                      over whole windows in three arrival
#                                      orders — ≈28 in peer runs, ≈31
#                                      round-robin, ≈73 shuffled (every
#                                      probe a miss) on the 2-vCPU box, all
#                                      at 0 allocs/op, where a map lookup
#                                      on a padded key per probe read ≈70
#                                      in each (≈117 inside bench/) and 48
#                                      allocs; one pass of the fold tier
#                                      prints its wall at GOMAXPROCS 1, 2
#                                      and 4: a sealed extent of sketches
#                                      must get faster from 1 to 2 — ≈16 ms
#                                      to ≈10 ms; dealt as one extent it
#                                      read ≈15 ms at any — and eight CSV
#                                      extents must not get slower, ≈70 ms
#                                      to ≈35 ms; a
#                                      regeneration of 1,000 pinglists with
#                                      the ring full — 3,000 patches built
#                                      with it — prints its ms/op and MB/op:
#                                      ≈100 ms and ≈75 MB on the 2-vCPU box,
#                                      where a compressor per body read
#                                      1,289 MB and a parse per patch 1 s;
#                                      the vote collector's batched ingest
#                                      prints its lane ns/probe at
#                                      GOMAXPROCS 1, 2 and 4 — ≈190 at 1 and
#                                      240–310 beyond on the 2-vCPU box,
#                                      where a path lookup per record under
#                                      the collector's mutex read 305, 652
#                                      and 1,284 — beside the cost of the one
#                                      greedy rank a publish pays; a
#                                      /diagnose?src=&dst= read prints its
#                                      cost as a memo hit, ≈0.2 µs and no
#                                      allocation like any cached read, and
#                                      as the epoch's first, ≈1.2 ms)
#   3b. diagnosis smoke               (the root-cause localization CLI at
#                                      reduced scale: two simultaneous
#                                      injected faults must land in the
#                                      vote ranking's top two and each
#                                      evidence chain must pin its hop)
#   4. short fuzz pass over the pinglist wire format (parse, round trip,
#      and the append writers against encoding/xml byte for byte), the
#      delta codec
#      (patch(old, diff) == new, byte-identical), the streaming record
#      decoder, the binary sketch codec, the batch splitter against the
#      whole-extent scan, the sketch-vs-exact aggregation
#      equivalence, the histogram's compact-vs-dense equivalence and its
#      run codec, and the PMT1 telemetry report round trip
#      (optional, FUZZ=1)
#
# Usage: scripts/ci.sh [package...]   # default: ./...
set -eu
cd "$(dirname "$0")/.."

PKGS="${*:-./...}"

echo "== tier 1: go vet && go build && go test"
go vet $PKGS
go build $PKGS
go test -cpu 1,2,4 $PKGS

echo "== tier 2: go test -race"
go test -race -cpu 1,2,4 $PKGS

echo "== tier 2b: benchmark module vet + test + smoke run"
(cd bench && go vet ./... && go test ./...)
sh bench/run.sh --workload all --scale smoke --seconds 0

echo "== tier 2c: flake pass (-race -count 5 -cpu 1,4)"
go test -race -count 5 -cpu 1,4 -timeout 30m ./internal/dsa ./internal/cosmos \
    ./internal/controller ./internal/telemetry ./internal/agent \
    ./internal/scope ./internal/analysis ./internal/metrics \
    ./internal/probe ./internal/diagnosis ./internal/portal

echo "== tier 3: alloc-guard smoke"
go test ./internal/scope ./internal/probe ./internal/analysis \
    ./internal/netsim ./internal/fleet \
    ./internal/httpcache ./internal/metrics ./internal/portal \
    ./internal/trace ./internal/agent ./internal/controller \
    ./internal/dsa ./internal/diagnosis \
    ./internal/telemetry \
    -run 'ZeroAlloc' -count=1 -v | grep -E '^(=== RUN|--- (PASS|FAIL)|ok|FAIL)'
go test ./internal/agent -run xxx -bench AgentRecordHotPath -benchtime 100000x
go test ./internal/agent -run xxx -bench 'SketchObserve$' -benchmem -benchtime 2000x
go test ./internal/dsa -run xxx -bench 'FoldPass$' -benchtime 20x -cpu 1,2,4
go test ./internal/telemetry -run xxx -bench 'IngestFleet$' -benchmem -benchtime 1000000x -cpu 1,2,4
go test ./internal/controller -run xxx -bench 'UpdateTopology$' -benchmem -benchtime 5x
go test ./internal/diagnosis -run xxx -bench 'ObserveBatch$|RankGreedy$' -benchmem -cpu 1,2,4
go test ./internal/portal -run xxx -bench 'PortalDiagnose(Hit|Miss)$|PortalSLACached$|PortalNotModified$' -benchmem

echo "== tier 3b: diagnosis smoke (reduced scale)"
go run ./cmd/pingmesh-diagnose -minutes 6 -check > /dev/null

if [ "${FUZZ:-0}" = "1" ]; then
    echo "== tier 4: fuzz wire formats (30s each)"
    go test ./internal/pinglist -fuzz FuzzUnmarshal -fuzztime 30s
    go test ./internal/pinglist -fuzz FuzzMarshalRoundTrip -fuzztime 30s
    go test ./internal/pinglist -fuzz FuzzMarshalMatchesEncodingXML -fuzztime 30s
    go test ./internal/pinglist -fuzz FuzzDeltaPatchVsFull -fuzztime 30s
    go test ./internal/probe -fuzz FuzzScannerVsDecodeBatch -fuzztime 30s
    go test ./internal/probe -fuzz FuzzBinaryCodecRoundTrip -fuzztime 30s
    go test ./internal/probe -fuzz FuzzSplitBatches -fuzztime 30s
    go test ./internal/analysis -fuzz FuzzSketchMergeVsExact -fuzztime 30s
    go test ./internal/metrics -fuzz FuzzCompactVsDense -fuzztime 30s
    go test ./internal/metrics -fuzz FuzzRuns -fuzztime 30s
    go test ./internal/telemetry -fuzz FuzzPMT1RoundTrip -fuzztime 30s
fi

echo "== non-test Go lines outside bench/: $(sh scripts/loc.sh)"
echo "== ci ok"
