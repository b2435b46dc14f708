package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"pingmesh/internal/pinglist"
	"pingmesh/internal/topology"
)

// determinismTopologies are the three seeded topologies of the golden
// test: the testbed, a single mid-size DC, and a multi-DC fleet with
// uneven pod sizes (so shard boundaries land mid-pod).
func determinismTopologies(t testing.TB) map[string]*topology.Topology {
	t.Helper()
	tops := map[string]*topology.Topology{"testbed": topology.SmallTestbed()}
	specs := map[string]topology.Spec{
		"mid-dc": {DCs: []topology.DCSpec{
			{Name: "DC1", Podsets: 3, PodsPerPodset: 6, ServersPerPod: 8, LeavesPerPodset: 4, Spines: 8},
		}},
		"multi-dc": {DCs: []topology.DCSpec{
			{Name: "DC1", Podsets: 2, PodsPerPodset: 5, ServersPerPod: 7, LeavesPerPodset: 2, Spines: 4},
			{Name: "DC2", Podsets: 3, PodsPerPodset: 3, ServersPerPod: 5, LeavesPerPodset: 2, Spines: 4},
			{Name: "DC3", Podsets: 1, PodsPerPodset: 8, ServersPerPod: 3, LeavesPerPodset: 2, Spines: 4},
		}},
	}
	for name, spec := range specs {
		top, err := topology.Build(spec)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		tops[name] = top
	}
	return tops
}

// marshalAll renders a generation as one deterministic byte blob: every
// server's XML in ServerID order.
func marshalAll(t testing.TB, lists map[topology.ServerID]*pinglist.File) []byte {
	t.Helper()
	ids := make([]int, 0, len(lists))
	for id := range lists {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	var buf bytes.Buffer
	for _, id := range ids {
		data, err := pinglist.Marshal(lists[topology.ServerID(id)])
		if err != nil {
			t.Fatalf("marshal server %d: %v", id, err)
		}
		fmt.Fprintf(&buf, "== %d ==\n", id)
		buf.Write(data)
	}
	return buf.Bytes()
}

// TestParallelGenerationByteIdentical is the §3.3.2 stateless-replica
// invariant: for three seeded topologies, generation at parallelism 1, 4,
// and NumCPU produces byte-identical marshaled output, across repeated
// runs, and identical to the serial reference (parallelism 1 is the serial
// path). Full variant coverage: payload, low-QoS, HTTP, and VIP peers on.
func TestParallelGenerationByteIdentical(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	cfg.PayloadBytes = 1024
	cfg.WithLowQoS = true
	cfg.LowQoSPort = 8766
	cfg.HTTPPort = 8080
	cfg.VIPs = []pinglist.Peer{{Addr: "10.255.0.1", Port: 80, Class: "intra-dc", Proto: "tcp", QoS: "high", IntervalSec: 60}}
	cfg.VIPProbersPerPodset = 2
	now := time.Unix(1751328000, 0).UTC()

	levels := []int{1, 4, runtime.NumCPU()}
	for name, top := range determinismTopologies(t) {
		t.Run(name, func(t *testing.T) {
			serialCfg := cfg
			serialCfg.Parallelism = 1
			lists, stats, err := GenerateWithStats(top, serialCfg, "golden", now)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Workers != 1 {
				t.Fatalf("parallelism 1 ran %d workers", stats.Workers)
			}
			golden := marshalAll(t, lists)

			for _, par := range levels {
				for run := 0; run < 3; run++ {
					c := cfg
					c.Parallelism = par
					lists, err := Generate(top, c, "golden", now)
					if err != nil {
						t.Fatalf("parallelism %d run %d: %v", par, run, err)
					}
					got := marshalAll(t, lists)
					if !bytes.Equal(got, golden) {
						t.Fatalf("parallelism %d run %d: output differs from serial reference (%d vs %d bytes)",
							par, run, len(got), len(golden))
					}
				}
			}
		})
	}
}

// TestGenerateSubsetMatchesFullRun checks the per-server determinism that
// parallel sharding relies on: a subset regeneration must produce files
// byte-identical to the full fleet's.
func TestGenerateSubsetMatchesFullRun(t *testing.T) {
	top := topology.SmallTestbed()
	cfg := DefaultGeneratorConfig()
	cfg.Parallelism = 4
	now := time.Unix(1751328000, 0).UTC()
	full, err := Generate(top, cfg, "v", now)
	if err != nil {
		t.Fatal(err)
	}
	subset := []topology.ServerID{0, topology.ServerID(top.NumServers() / 2), topology.ServerID(top.NumServers() - 1)}
	some, err := GenerateSubset(top, cfg, "v", now, subset)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range subset {
		a, _ := pinglist.Marshal(full[id])
		b, _ := pinglist.Marshal(some[id])
		if !bytes.Equal(a, b) {
			t.Fatalf("server %d: subset file differs from full-run file", id)
		}
	}
}

// TestGenerateStats sanity-checks the execution statistics the controller
// exports as perf counters.
func TestGenerateStats(t *testing.T) {
	top := topology.SmallTestbed()
	cfg := DefaultGeneratorConfig()
	cfg.Parallelism = 4
	_, stats, err := GenerateWithStats(top, cfg, "v", time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Servers != top.NumServers() {
		t.Fatalf("Servers = %d, want %d", stats.Servers, top.NumServers())
	}
	if stats.Workers < 1 || stats.Workers > 4 {
		t.Fatalf("Workers = %d", stats.Workers)
	}
	if stats.Wall < 0 {
		t.Fatalf("negative wall: %+v", stats)
	}
}
