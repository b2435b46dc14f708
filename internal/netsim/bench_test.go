package netsim

import (
	"math/rand/v2"
	"testing"
	"time"

	"pingmesh/internal/topology"
)

func benchNetwork(b *testing.B) *Network {
	b.Helper()
	top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{
		{Name: "DC1", Podsets: 3, PodsPerPodset: 5, ServersPerPod: 8, LeavesPerPodset: 4, Spines: 8},
		{Name: "DC2", Podsets: 3, PodsPerPodset: 5, ServersPerPod: 8, LeavesPerPodset: 4, Spines: 8},
	}})
	if err != nil {
		b.Fatal(err)
	}
	n, err := New(top, Config{Profiles: []Profile{DC1Profile(), DC2Profile()}})
	if err != nil {
		b.Fatal(err)
	}
	return n
}

func benchProbe(b *testing.B, src, dst topology.ServerID, payload int) {
	n := benchNetwork(b)
	rng := rand.New(rand.NewPCG(1, 2))
	start := time.Unix(1751328000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Probe(ProbeSpec{
			Src: src, Dst: dst,
			SrcPort: uint16(32768 + i%28000), DstPort: 8765,
			PayloadLen: payload,
			Start:      start,
		}, rng)
	}
}

func BenchmarkProbeIntraPod(b *testing.B) {
	n := benchNetwork(b)
	pod := n.Topology().PodOf(0)
	benchProbe(b, pod.Servers[0], pod.Servers[1], 0)
}

func BenchmarkProbeCrossPodset(b *testing.B) {
	n := benchNetwork(b)
	top := n.Topology()
	benchProbe(b, top.DCs[0].Podsets[0].Pods[0].Servers[0], top.DCs[0].Podsets[1].Pods[0].Servers[0], 0)
}

func BenchmarkProbeCrossDC(b *testing.B) {
	n := benchNetwork(b)
	top := n.Topology()
	benchProbe(b, top.DCs[0].Podsets[0].Pods[0].Servers[0], top.DCs[1].Podsets[0].Pods[0].Servers[0], 0)
}

func BenchmarkProbeWithPayload(b *testing.B) {
	n := benchNetwork(b)
	top := n.Topology()
	benchProbe(b, top.DCs[0].Podsets[0].Pods[0].Servers[0], top.DCs[0].Podsets[1].Pods[0].Servers[0], 1000)
}

// BenchmarkProbeReference measures the retained uncached path, the
// baseline the plan cache is compared against.
func BenchmarkProbeReference(b *testing.B) {
	n := benchNetwork(b)
	top := n.Topology()
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[1].Pods[0].Servers[0]
	rng := rand.New(rand.NewPCG(1, 2))
	start := time.Unix(1751328000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.probeReference(ProbeSpec{
			Src: src, Dst: dst,
			SrcPort: uint16(32768 + i%28000), DstPort: 8765,
			Start: start,
		}, rng)
	}
}

// BenchmarkProbePairProber measures the caller-owned handle the fleet
// runner uses: plan revalidation is a pointer compare, no map lookup.
func BenchmarkProbePairProber(b *testing.B) {
	n := benchNetwork(b)
	top := n.Topology()
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[1].Pods[0].Servers[0]
	pr := n.PairProber(src, dst)
	rng := rand.New(rand.NewPCG(1, 2))
	start := time.Unix(1751328000, 0)
	spec := ProbeSpec{Src: src, Dst: dst, DstPort: 8765, Start: start}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.SrcPort = uint16(32768 + i%28000)
		pr.Probe(&spec, rng)
	}
}

// BenchmarkPathResolve reports a cross-podset route three ways: one probe
// through the pair's cached plan (AppendPath), a run of 24 probes through
// one plan lookup (AppendPaths, what diagnosis ingest calls; ns/path), and
// resolve, the reference that hashes both addresses at every ECMP stage.
func BenchmarkPathResolve(b *testing.B) {
	n := benchNetwork(b)
	top := n.Topology()
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[1].Pods[0].Servers[0]
	buf := make([]topology.SwitchID, 0, 24*6)
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = n.AppendPath(buf[:0], src, dst, uint16(32768+i%28000), 8765)
		}
	})
	b.Run("plan-run24", func(b *testing.B) {
		ports := make([][2]uint16, 24)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := range ports {
				ports[k] = [2]uint16{uint16(32768 + (24*i+k)%28000), 8765}
			}
			buf, _, _ = n.AppendPaths(buf[:0], src, dst, ports)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(24*b.N), "ns/path")
	})
	b.Run("resolve", func(b *testing.B) {
		ft := n.faults.Load()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := n.resolve(ft, src, dst, uint16(32768+i%28000), 8765)
			buf = append(buf[:0], r.Hops()...)
		}
	})
}

func BenchmarkTraceProbe(b *testing.B) {
	n := benchNetwork(b)
	top := n.Topology()
	src := top.DCs[0].Podsets[0].Pods[0].Servers[0]
	dst := top.DCs[0].Podsets[1].Pods[0].Servers[0]
	rng := rand.New(rand.NewPCG(3, 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.TraceProbe(src, dst, 40000, 8765, 3, rng)
	}
}
