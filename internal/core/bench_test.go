package core

import (
	"fmt"
	"testing"
	"time"

	"pingmesh/internal/topology"
)

// benchTopology builds the named benchmark fleet.
func benchTopology(b *testing.B, size string) *topology.Topology {
	b.Helper()
	specs := map[string]topology.Spec{
		"small": {DCs: []topology.DCSpec{
			{Name: "DC1", Podsets: 2, PodsPerPodset: 5, ServersPerPod: 10, LeavesPerPodset: 2, Spines: 4},
		}},
		"medium": {DCs: []topology.DCSpec{
			{Name: "DC1", Podsets: 5, PodsPerPodset: 10, ServersPerPod: 20, LeavesPerPodset: 4, Spines: 8},
		}},
		"large": {DCs: []topology.DCSpec{
			{Name: "DC1", Podsets: 10, PodsPerPodset: 20, ServersPerPod: 20, LeavesPerPodset: 4, Spines: 16},
			{Name: "DC2", Podsets: 5, PodsPerPodset: 20, ServersPerPod: 20, LeavesPerPodset: 4, Spines: 16},
		}},
	}
	top, err := topology.Build(specs[size])
	if err != nil {
		b.Fatal(err)
	}
	return top
}

// BenchmarkGenerateParallel measures pinglist generation across topology
// sizes and parallelism levels. The per-op servers metric lets runs be
// compared across sizes.
func BenchmarkGenerateParallel(b *testing.B) {
	cfg := DefaultGeneratorConfig()
	now := time.Unix(1751328000, 0).UTC()
	for _, size := range []string{"small", "medium", "large"} {
		top := benchTopology(b, size)
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/par=%d", size, par), func(b *testing.B) {
				c := cfg
				c.Parallelism = par
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Generate(top, c, "bench", now); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(top.NumServers()), "servers")
			})
		}
	}
}

func BenchmarkGenerateMidSizeDC(b *testing.B) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 5, PodsPerPodset: 20, ServersPerPod: 20, LeavesPerPodset: 4, Spines: 16},
	}})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultGeneratorConfig()
	now := time.Unix(1751328000, 0).UTC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(top, cfg, "bench", now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(top.NumServers()), "servers")
}

func BenchmarkGenerateSingleServer(b *testing.B) {
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "BIG", Podsets: 50, PodsPerPodset: 50, ServersPerPod: 1, LeavesPerPodset: 2, Spines: 8},
	}})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultGeneratorConfig()
	now := time.Unix(1751328000, 0).UTC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lists, err := GenerateSubset(top, cfg, "bench", now, []topology.ServerID{0})
		if err != nil {
			b.Fatal(err)
		}
		if len(lists[0].Peers) < 2000 {
			b.Fatal("fan-out too small")
		}
	}
}
