#!/bin/sh
# CI / verify flow for the pingmesh repo. What each tier found and what its
# benchmarks read when they were added is in CHANGES.md, not here.
#
# Tiers:
#   1.  vet + build + full test suite at GOMAXPROCS 1, 2 and 4 (a verdict
#       that depends on the core count is a bug in the test), and the line
#       ratchet: scripts/loc.sh must not print more than scripts/loc.max —
#       a PR that must grow raises the file in its own diff
#   2.  the same suite under -race
#   2b. the benchmark module (bench/ is a nested module ./... does not
#       reach): vet, test, and all four workloads at smoke scale
#   2c. flake pass: the packages with concurrency-sensitive tests, five
#       times over under -race at GOMAXPROCS 1 and 4. It skips diagnosis's
#       TestPinNeverBlamesAnInnocentSwitch: its parallel fabrics share only
#       read-only inputs, it costs about 25s of CPU per run under -race, and
#       tiers 1 and 2 still run it (three times under -race in tier 2)
#   3.  alloc guards (every *ZeroAlloc* test) and the microbenchmarks that
#       print per-layer costs at GOMAXPROCS 1, 2 and 4. cosmos Append$
#       runs 2,048 ops, two 4 MiB extents; an op stores 12,288 B and
#       should read about 24.7 KB/op (2.01x; append's own growth read
#       61.7 KB/op; TestAppendAllocatesAboutTwice fails above 2.1x).
#       netsim PathResolve$ prints a route from the cached pair plan (one
#       probe, and a run of 24) next to the from-scratch resolve; diagnosis
#       ObserveBatch$ prints its random-pair and run-ordered episodes. dsa
#       FoldPass$/open appends one sketched batch to an extent that stays
#       open and folds it from the extent's byte cursor: ns/op follows the
#       batch, not the extent's length. scope FoldExtent$ folds the same
#       records peer by peer (runs) and interleaved, 0 allocs/op on both.
#       metrics DecodeRuns$ decodes a 32-run wire histogram and merges its
#       packed runs into a histogram, 0 allocs/op. pinglist Unmarshal$ and
#       UnmarshalDelta$ decode what a fleet_churn agent fetches: a 54-peer
#       pinglist and its update round's delta, in a constant few allocs/op
#       agent ScheduleDispatch$ is one dispatch of the agent's probe loop
#       (pop the earliest-due peer off the schedule's heap and re-arm it) at
#       50, 500 and 5,000 peers, 0 allocs/op; fleet FleetRun$ is one
#       simulated hour of a 24-server DC through the fleet runner, which
#       probes the same schedule
#   3b. examples/isitnetwork, whose two incidents must print the verdicts
#       not-network and network, in that order; then every paper figure and
#       table at reduced budgets (cmd/experiments -quick), the pipeline-read
#       ones through SimTestbed's store and DSA cycles, and the §5
#       localization run (tier 1's TestDiagnosisLocatesBothFaults pins its
#       numbers); then examples/silentdrop, which exits non-zero unless the
#       §5.2 localiser blames the spine it injected
#   3c. telemetry plane smoke: the real controller and agent binaries on
#       loopback with no telemetry flag; within 10s the agent's report
#       must show up as a fleet rollup point on the controller's debug port
#   3d. simulated-fleet portal smoke: pingmesh-sim -addr on loopback must log
#       two cycles and still be running (a DSA cycle off the window grid
#       fails and exits it), and /heatmap/DC1 must answer 200
#   4.  short fuzz pass over the wire formats (CSV lines included; the
#       pinglist and delta decoders against encoding/xml) and merge
#       equivalences (optional, FUZZ=1)
#
# Usage: scripts/ci.sh [package...]   # default: ./...
set -eu
cd "$(dirname "$0")/.."

PKGS="${*:-./...}"

echo "== tier 1: go vet && go build && go test"
go vet $PKGS
go build $PKGS
if [ "$(sh scripts/loc.sh)" -gt "$(cat scripts/loc.max)" ]; then
    echo "non-test Go lines outside bench/: $(sh scripts/loc.sh) > scripts/loc.max $(cat scripts/loc.max)" >&2
    exit 1
fi
go test -cpu 1,2,4 $PKGS

echo "== tier 2: go test -race"
go test -race -cpu 1,2,4 $PKGS

echo "== tier 2b: benchmark module vet + test + smoke run"
(cd bench && go vet ./... && go test ./...)
sh bench/run.sh --workload all --scale smoke --seconds 0

echo "== tier 2c: flake pass (-race -count 5 -cpu 1,4)"
go test -race -count 5 -cpu 1,4 -timeout 30m -skip 'TestPinNeverBlamesAnInnocentSwitch' \
    ./internal/dsa ./internal/cosmos \
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
go test ./internal/agent -run xxx -bench 'ScheduleDispatch$' -benchmem
go test ./internal/fleet -run xxx -bench 'FleetRun$' -benchmem
go test ./internal/dsa -run xxx -bench 'FoldPass$' -benchtime 20x -cpu 1,2,4
go test ./internal/dsa -run xxx -bench 'FoldPass$/open' -benchtime 2000x -cpu 1,2
go test ./internal/scope -run xxx -bench 'ScopeRun$' -benchmem -cpu 1,2
go test ./internal/scope -run xxx -bench 'FoldExtent$' -benchmem
go test ./internal/cosmos -run xxx -bench 'Append$' -benchmem -benchtime 2048x
go test ./internal/metrics -run xxx -bench 'DecodeRuns$' -benchmem
go test ./internal/pinglist -run xxx -bench 'Unmarshal$|UnmarshalDelta$' -benchmem
go test ./internal/telemetry -run xxx -bench 'IngestFleet$' -benchmem -benchtime 1000000x -cpu 1,2,4
go test ./internal/controller -run xxx -bench 'UpdateTopology$' -benchmem -benchtime 5x
go test ./internal/netsim -run xxx -bench 'PathResolve$' -benchmem
go test ./internal/diagnosis -run xxx -bench 'ObserveBatch$|RankGreedy$' -benchmem -cpu 1,2,4
go test ./internal/portal -run xxx -bench 'PortalDiagnose(Hit|Miss)$|PortalSLACached$|PortalNotModified$' -benchmem

echo "== tier 3b: the is-it-the-network example, the paper's experiments, the silent-drop example"
VERDICTS=$(go run ./examples/isitnetwork | grep '^verdict: ' | cut -d' ' -f2 | tr '\n' ' ')
if [ "$VERDICTS" != "not-network network " ]; then
    echo "examples/isitnetwork: verdicts '$VERDICTS', want incident 1 not-network, incident 2 network" >&2
    exit 1
fi
go run ./cmd/experiments -quick > /dev/null
go run ./examples/silentdrop > /dev/null

echo "== tier 3c: telemetry plane smoke (loopback, no telemetry flags)"
SMOKE=$(mktemp -d)
go build -o "$SMOKE/controller" ./cmd/pingmesh-controller
go build -o "$SMOKE/agent" ./cmd/pingmesh-agent
"$SMOKE/controller" -topology examples/topology.json -listen 127.0.0.1:18480 \
    -telemetry-sample 1s -debug-addr 127.0.0.1:18489 > "$SMOKE/controller.out" 2>&1 &
CTRL_PID=$!
"$SMOKE/agent" -name DC1-ps00-pod00-s00 -source 127.0.0.1 -controller http://127.0.0.1:18480 \
    -listen 127.0.0.1:18765 -log "$SMOKE/agent.log" -telemetry-interval 1s > "$SMOKE/agent.out" 2>&1 &
AGENT_PID=$!
points=0
for _ in 1 2 3 4 5 6 7 8 9 10; do
    sleep 1
    points=$(curl -s 'http://127.0.0.1:18489/telemetry?key=fleet/counter/agent.fetches_ok' | grep -c '"value"' || true)
    [ "$points" -gt 0 ] && break
done
kill "$AGENT_PID" "$CTRL_PID" 2>/dev/null || true
wait "$AGENT_PID" "$CTRL_PID" 2>/dev/null || true
if [ "$points" -eq 0 ]; then
    echo "no fleet/counter/agent.fetches_ok point within 10s" >&2
    cat "$SMOKE/controller.out" "$SMOKE/agent.out" >&2
    rm -rf "$SMOKE"
    exit 1
fi
rm -rf "$SMOKE"
echo "fleet/counter/agent.fetches_ok: $points point(s)"

echo "== tier 3d: simulated-fleet portal smoke (loopback)"
SMOKE=$(mktemp -d)
go build -o "$SMOKE/sim" ./cmd/pingmesh-sim
"$SMOKE/sim" -addr 127.0.0.1:18481 -interval 200ms > "$SMOKE/sim.out" 2>&1 &
SIM_PID=$!
cycles=0
for _ in 1 2 3 4 5 6 7 8 9 10; do
    sleep 1
    cycles=$(grep -c '^cycle ' "$SMOKE/sim.out" || true)
    [ "$cycles" -ge 2 ] && break
done
HEATMAP=$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18481/heatmap/DC1 || true)
RUNNING=no
kill -0 "$SIM_PID" 2>/dev/null && RUNNING=yes
kill "$SIM_PID" 2>/dev/null || true
wait "$SIM_PID" 2>/dev/null || true
if [ "$cycles" -lt 2 ] || [ "$RUNNING" != "yes" ] || [ "$HEATMAP" != "200" ]; then
    echo "pingmesh-sim -addr: $cycles cycles, running $RUNNING, /heatmap/DC1 status $HEATMAP" >&2
    cat "$SMOKE/sim.out" >&2
    rm -rf "$SMOKE"
    exit 1
fi
rm -rf "$SMOKE"
echo "pingmesh-sim -addr: $cycles cycles, running $RUNNING, /heatmap/DC1 $HEATMAP"

if [ "${FUZZ:-0}" = "1" ]; then
    echo "== tier 4: fuzz wire formats (30s each)"
    go test ./internal/pinglist -fuzz 'FuzzUnmarshal$' -fuzztime 30s
    go test ./internal/pinglist -fuzz FuzzUnmarshalDelta -fuzztime 30s
    go test ./internal/pinglist -fuzz FuzzMarshalRoundTrip -fuzztime 30s
    go test ./internal/pinglist -fuzz FuzzMarshalMatchesEncodingXML -fuzztime 30s
    go test ./internal/pinglist -fuzz FuzzDeltaPatchVsFull -fuzztime 30s
    go test ./internal/probe -fuzz FuzzParseCSV -fuzztime 30s
    go test ./internal/probe -fuzz FuzzScannerVsDecodeBatch -fuzztime 30s
    go test ./internal/probe -fuzz FuzzBinaryCodecRoundTrip -fuzztime 30s
    go test ./internal/probe -fuzz FuzzSplitBatches -fuzztime 30s
    go test ./internal/analysis -fuzz FuzzSketchMergeVsExact -fuzztime 30s
    go test ./internal/metrics -fuzz FuzzCompactVsDense -fuzztime 30s
    go test ./internal/metrics -fuzz FuzzRuns -fuzztime 30s
    go test ./internal/telemetry -fuzz FuzzPMT1RoundTrip -fuzztime 30s
fi

echo "== non-test Go lines outside bench/: $(sh scripts/loc.sh) (ceiling $(cat scripts/loc.max))"
echo "== ci ok"
