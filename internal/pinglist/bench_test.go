package pinglist_test

import (
	"testing"
	"time"

	"pingmesh/internal/core"
	"pingmesh/internal/pinglist"
	"pingmesh/internal/topology"
)

// churnBodies returns what an agent holds and is sent on the benchmark's
// fleet_churn workload: the pinglist body of a server in its 600-server
// two-DC topology (54 peers, 6.1 KB, as 580 of the 600 have; the first
// server is one of the 20 that also probe the other DC), and the body the
// update round brings it, when each DC gains a podset.
func churnBodies(b *testing.B) (base, target []byte) {
	return updateBodies(b, 5, 10, 6)
}

// deploymentBodies is churnBodies at the size of the paper's pinglists: two
// DCs of 2,000 pods, so a server probes ≈2,000 peers (220 KB), and each DC
// gains a podset of 50 pods.
func deploymentBodies(b *testing.B) (base, target []byte) {
	return updateBodies(b, 40, 50, 2)
}

// updateBodies returns server 1's body in a two-DC topology of the given
// shape, before and after each DC gains a podset.
func updateBodies(b *testing.B, podsets, podsPerPodset, serversPerPod int) (base, target []byte) {
	b.Helper()
	generate := func(podsets int, version string) []byte {
		dc := func(name string) topology.DCSpec {
			return topology.DCSpec{Name: name, Podsets: podsets, PodsPerPodset: podsPerPodset,
				ServersPerPod: serversPerPod, LeavesPerPodset: 2, Spines: 4}
		}
		top, err := topology.Build(topology.Spec{DCs: []topology.DCSpec{dc("DC1"), dc("DC2")}})
		if err != nil {
			b.Fatal(err)
		}
		files, err := core.GenerateSubset(top, core.DefaultGeneratorConfig(), version,
			time.Unix(1750000000, 0).UTC(), []topology.ServerID{1})
		if err != nil {
			b.Fatal(err)
		}
		body, err := pinglist.Marshal(files[1])
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	return generate(podsets, "gen-1"), generate(podsets+1, "gen-2")
}

// deltaSizes are BenchmarkDeltaAppend's and BenchmarkPatch's two files.
var deltaSizes = []struct {
	name   string
	bodies func(*testing.B) ([]byte, []byte)
}{{"churn", churnBodies}, {"2000-peers", deploymentBodies}}

func BenchmarkUnmarshal(b *testing.B) {
	file, _ := churnBodies(b)
	f, err := pinglist.Unmarshal(file)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(file)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err = pinglist.Unmarshal(file)
	}
	b.ReportMetric(float64(len(f.Peers)), "peers")
	sinkFile, sinkErr = f, err
}

// BenchmarkMarshal is the body an UpdateTopology worker writes per server.
func BenchmarkMarshal(b *testing.B) {
	file, _ := churnBodies(b)
	f, err := pinglist.Unmarshal(file)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(file)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBody, sinkErr = pinglist.Marshal(f)
	}
}

// BenchmarkDeltaAppend is the delta an UpdateTopology worker builds per
// (ringed base, target) pair, with the one writer it reuses.
func BenchmarkDeltaAppend(b *testing.B) {
	for _, size := range deltaSizes {
		b.Run(size.name, func(b *testing.B) {
			base, target := size.bodies(b)
			var w pinglist.DeltaWriter
			d := w.Append(nil, base, target)
			b.SetBytes(int64(len(target)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d = w.Append(d[:0], base, target)
			}
			b.ReportMetric(float64(len(d)), "delta-B")
		})
	}
}

// BenchmarkPatch is what a stale agent does with the delta: rebuild the
// new body from its base.
func BenchmarkPatch(b *testing.B) {
	for _, size := range deltaSizes {
		b.Run(size.name, func(b *testing.B) {
			base, target := size.bodies(b)
			d := new(pinglist.DeltaWriter).Append(nil, base, target)
			b.SetBytes(int64(len(target)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkBody, sinkErr = pinglist.Patch(base, d)
			}
		})
	}
}

var (
	sinkFile *pinglist.File
	sinkBody []byte
	sinkErr  error
)
